// AVX2+FMA microkernels for the vec backend (amd64). Each function is the
// drop-in counterpart of a pure-Go kernel in backend_vec.go: same
// per-element accumulation structure, eight lanes at a time. Lane sums are
// combined in a fixed order, so results are run-to-run deterministic; they
// differ from the scalar kernels by the usual k-scaled handful of ulps
// (FMA contraction plus lane-wise partial sums), which the parity suite's
// tolerance covers. Callers guarantee len(dst)/len(a) ≤ len of every other
// slice; only the first len elements are touched. The exceptions are exact:
// dot3x4IndAVX equals dot4AVX row by row; expAVX, maxShiftAVX and
// xentGradAVX (softmax.go's kernels) equal math.Exp and their Go
// counterparts bit for bit; and reluGradAVX and adamAVX equal reluGradGo
// and adamGo bit for bit.

#include "textflag.h"

// func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0Asm() (eax, edx uint32)
TEXT ·xgetbv0Asm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dot4AVX(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
// Four dot products of a against b0..b3 in one pass: one ymm accumulator
// per b row, FMA from memory, scalar tail in the low lane.
TEXT ·dot4AVX(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   dot4reduce

dot4loop:
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (R8)(AX*4), Y4, Y0
	VFMADD231PS (R9)(AX*4), Y4, Y1
	VFMADD231PS (R10)(AX*4), Y4, Y2
	VFMADD231PS (R11)(AX*4), Y4, Y3
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  dot4loop

dot4reduce:
	// Reduce each ymm accumulator to a scalar in lane 0 BEFORE the scalar
	// tail: a VEX write to an xmm register zeroes the upper half of the
	// aliased ymm, so tail FMAs must only ever see reduced accumulators.
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPS X4, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPS X4, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPS X4, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3

dot4tail:
	CMPQ AX, CX
	JGE  dot4done
	VMOVSS (SI)(AX*4), X4
	VFMADD231SS (R8)(AX*4), X4, X0
	VFMADD231SS (R9)(AX*4), X4, X1
	VFMADD231SS (R10)(AX*4), X4, X2
	VFMADD231SS (R11)(AX*4), X4, X3
	INCQ AX
	JMP  dot4tail

dot4done:
	VMOVSS X0, s0+120(FP)
	VMOVSS X1, s1+124(FP)
	VMOVSS X2, s2+128(FP)
	VMOVSS X3, s3+132(FP)
	VZEROUPPER
	RET

// func dotAVX(a, b []float32) float32
// Single dot product with four ymm accumulators (32 floats per iteration)
// so the FMA latency chains stay saturated.
TEXT ·dotAVX(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	JZ   dot1mid

dot1loop:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (R8)(AX*4), Y4, Y0
	VFMADD231PS 32(R8)(AX*4), Y5, Y1
	VFMADD231PS 64(R8)(AX*4), Y6, Y2
	VFMADD231PS 96(R8)(AX*4), Y7, Y3
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  dot1loop

dot1mid:
	// 8-wide middle loop over the remaining <32 elements.
	MOVQ CX, DX
	ANDQ $-8, DX

dot1mid8:
	CMPQ AX, DX
	JGE  dot1reduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (R8)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dot1mid8

dot1reduce:
	// Reduce to a lane-0 scalar before the tail (see dot4AVX).
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

dot1tail:
	CMPQ AX, CX
	JGE  dot1done
	VMOVSS (SI)(AX*4), X4
	VFMADD231SS (R8)(AX*4), X4, X0
	INCQ AX
	JMP  dot1tail

dot1done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpy4AVX(dst []float32, a0, a1, a2, a3 float32, x0, x1, x2, x3 []float32)
// dst[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j], eight lanes at a
// time with broadcast coefficients; scalar tail in the low lane.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSS a0+24(FP), Y0
	VBROADCASTSS a1+28(FP), Y1
	VBROADCASTSS a2+32(FP), Y2
	VBROADCASTSS a3+36(FP), Y3
	MOVQ x0_base+40(FP), R8
	MOVQ x1_base+64(FP), R9
	MOVQ x2_base+88(FP), R10
	MOVQ x3_base+112(FP), R11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   axpy4tail

axpy4loop:
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (R8)(AX*4), Y0, Y4
	VFMADD231PS (R9)(AX*4), Y1, Y4
	VFMADD231PS (R10)(AX*4), Y2, Y4
	VFMADD231PS (R11)(AX*4), Y3, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  axpy4loop

axpy4tail:
	CMPQ AX, CX
	JGE  axpy4done
	VMOVSS (DI)(AX*4), X4
	VFMADD231SS (R8)(AX*4), X0, X4
	VFMADD231SS (R9)(AX*4), X1, X4
	VFMADD231SS (R10)(AX*4), X2, X4
	VFMADD231SS (R11)(AX*4), X3, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ AX
	JMP  axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func packTileInd4x24AVX(c []float32, ldc int, ap, b []float32, offs []int32, nq, nt int, load bool)
// The register-blocked GEMM micro-kernel of the vec backend's convolutions
// (gemmPacked): one 4-row x 24-column tile of C accumulated across nq
// packed quads plus nt packed tail positions, entirely in twelve ymm
// accumulators. Twelve independent FMA chains cover the FMA
// latency-throughput product of AVX2 cores. k position p of the panel
// reads its 24 B floats at b + offs[p] floats — B's rows through a
// row-offset table — and each B vector loads once and feeds all four
// rows; C sees exactly one load (when load is set) and one store per
// call, the traffic the axpy spans pay per k-quad. Accumulation per
// element is a single sequential FMA chain in ascending-k order, so
// results are deterministic for any worker count, tile walk, or panel
// split.
//
// ap is positioned at the row block's quad for the first k of the panel;
// the packed layout stores a block's quads and its k%4 tail contiguously
// (quad q at 64q bytes holding rows at 16r+4j; tail position t at 16t
// bytes past the quads holding rows at 4r), so the kernel walks one
// pointer. c is positioned at the tile corner with row stride ldc floats,
// b at the tile's first column (offs[p] is then row p's start), and offs
// at the panel's slice of the table.
#define IND24K(r0, r1, r2, r3) \
	MOVLQSX (R13), AX; \
	ADDQ $4, R13; \
	VMOVUPS (R8)(AX*4), Y12; \
	VMOVUPS 32(R8)(AX*4), Y13; \
	VMOVUPS 64(R8)(AX*4), Y14; \
	VBROADCASTSS r0(SI), Y15; \
	VFMADD231PS Y12, Y15, Y0; \
	VFMADD231PS Y13, Y15, Y1; \
	VFMADD231PS Y14, Y15, Y2; \
	VBROADCASTSS r1(SI), Y15; \
	VFMADD231PS Y12, Y15, Y3; \
	VFMADD231PS Y13, Y15, Y4; \
	VFMADD231PS Y14, Y15, Y5; \
	VBROADCASTSS r2(SI), Y15; \
	VFMADD231PS Y12, Y15, Y6; \
	VFMADD231PS Y13, Y15, Y7; \
	VFMADD231PS Y14, Y15, Y8; \
	VBROADCASTSS r3(SI), Y15; \
	VFMADD231PS Y12, Y15, Y9; \
	VFMADD231PS Y13, Y15, Y10; \
	VFMADD231PS Y14, Y15, Y11
TEXT ·packTileInd4x24AVX(SB), NOSPLIT, $0-121
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R12
	SHLQ $2, R12
	MOVQ ap_base+32(FP), SI
	MOVQ b_base+56(FP), R8
	MOVQ offs_base+80(FP), R13
	MOVQ nq+104(FP), CX
	MOVQ nt+112(FP), BX
	MOVBLZX load+120(FP), AX
	TESTL AX, AX
	JNZ  i24load

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	JMP  i24quads

i24load:
	MOVQ DI, DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	ADDQ R12, DX
	VMOVUPS (DX), Y3
	VMOVUPS 32(DX), Y4
	VMOVUPS 64(DX), Y5
	ADDQ R12, DX
	VMOVUPS (DX), Y6
	VMOVUPS 32(DX), Y7
	VMOVUPS 64(DX), Y8
	ADDQ R12, DX
	VMOVUPS (DX), Y9
	VMOVUPS 32(DX), Y10
	VMOVUPS 64(DX), Y11

i24quads:
	TESTQ CX, CX
	JZ   i24tail

i24quadloop:
	IND24K(0, 16, 32, 48)
	IND24K(4, 20, 36, 52)
	IND24K(8, 24, 40, 56)
	IND24K(12, 28, 44, 60)
	ADDQ $64, SI
	DECQ CX
	JNZ  i24quadloop

i24tail:
	TESTQ BX, BX
	JZ   i24store

i24tailloop:
	IND24K(0, 4, 8, 12)
	ADDQ $16, SI
	DECQ BX
	JNZ  i24tailloop

i24store:
	MOVQ DI, DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	ADDQ R12, DX
	VMOVUPS Y3, (DX)
	VMOVUPS Y4, 32(DX)
	VMOVUPS Y5, 64(DX)
	ADDQ R12, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VMOVUPS Y8, 64(DX)
	ADDQ R12, DX
	VMOVUPS Y9, (DX)
	VMOVUPS Y10, 32(DX)
	VMOVUPS Y11, 64(DX)
	VZEROUPPER
	RET
#undef IND24K

// func reluAVX(d []float32)
// In-place ReLU: d[i] = max(d[i], 0), 32 lanes per iteration. VMAXPS with
// +0 as the first source returns the second source when both are zero or
// when it is NaN, so -0 and NaN inputs pass through exactly as the scalar
// kernel's `v > 0` test leaves them (values compare equal either way).
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	JZ   relu8

relu32loop:
	VMAXPS (DI)(AX*4), Y0, Y1
	VMAXPS 32(DI)(AX*4), Y0, Y2
	VMAXPS 64(DI)(AX*4), Y0, Y3
	VMAXPS 96(DI)(AX*4), Y0, Y4
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	VMOVUPS Y3, 64(DI)(AX*4)
	VMOVUPS Y4, 96(DI)(AX*4)
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  relu32loop

relu8:
	MOVQ CX, DX
	ANDQ $-8, DX

relu8loop:
	CMPQ AX, DX
	JGE  relutail
	VMAXPS (DI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	JMP  relu8loop

relutail:
	CMPQ AX, CX
	JGE  reludone
	VMAXSS (DI)(AX*4), X0, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  relutail

reludone:
	VZEROUPPER
	RET

// func saxpyAVX(dst []float32, a float32, x []float32)
// dst[j] += a*x[j], the single-row tail kernel of the axpy GEMM forms.
TEXT ·saxpyAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSS a+24(FP), Y0
	MOVQ x_base+32(FP), R8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   saxpytail

saxpyloop:
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (R8)(AX*4), Y0, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  saxpyloop

saxpytail:
	CMPQ AX, CX
	JGE  saxpydone
	VMOVSS (DI)(AX*4), X4
	VFMADD231SS (R8)(AX*4), X0, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ AX
	JMP  saxpytail

saxpydone:
	VZEROUPPER
	RET

// func dot3x4IndAVX(c []float32, ldc int, a []float32, lda int, b []float32, offs []int32, h, w, wp int)
// Twelve dot products, a's rows at a, a+lda and a+2*lda (h*w floats each)
// against B's rows j < 4, each h segments of w floats at b + offs[j] + y*wp
// (y < h): a conv's lowered row read in place (indirect.go) or a dense row.
// c[r*ldc+j] gets each. Every accumulator runs dot4AVX's lane chain and
// reduction across segments, and w is a positive multiple of 8, so no
// scalar tail is left and each result is dot4AVX's on the whole row bit for
// bit; the three a rows share each B load. lda = ldc = 0 computes one a row
// three times into one place.
TEXT ·dot3x4IndAVX(SB), NOSPLIT, $0-136
	MOVQ lda+56(FP), DX
	SHLQ $2, DX
	MOVQ a_base+32(FP), SI
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), BX
	MOVQ b_base+64(FP), R12
	MOVQ offs_base+88(FP), R13
	MOVLQSX (R13), AX
	LEAQ (R12)(AX*4), R8
	MOVLQSX 4(R13), AX
	LEAQ (R12)(AX*4), R9
	MOVLQSX 8(R13), AX
	LEAQ (R12)(AX*4), R10
	MOVLQSX 12(R13), AX
	LEAQ (R12)(AX*4), R11
	MOVQ wp+128(FP), R13
	SHLQ $2, R13
	MOVQ h+112(FP), R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	// AX indexes a across segments; DX indexes b within one.
	XORQ AX, AX
	TESTQ R14, R14
	JZ   d34ireduce

d34irow:
	XORQ DX, DX
	MOVQ w+120(FP), CX

d34iloop:
	VMOVUPS (SI)(AX*4), Y12
	VMOVUPS (DI)(AX*4), Y13
	VMOVUPS (BX)(AX*4), Y14
	VMOVUPS (R8)(DX*4), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y8
	VMOVUPS (R9)(DX*4), Y15
	VFMADD231PS Y15, Y12, Y1
	VFMADD231PS Y15, Y13, Y5
	VFMADD231PS Y15, Y14, Y9
	VMOVUPS (R10)(DX*4), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y6
	VFMADD231PS Y15, Y14, Y10
	VMOVUPS (R11)(DX*4), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y11
	ADDQ $8, AX
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  d34iloop

	ADDQ R13, R8
	ADDQ R13, R9
	ADDQ R13, R10
	ADDQ R13, R11
	DECQ R14
	JNZ  d34irow

d34ireduce:
	// dot4AVX's reduction, accumulator by accumulator.
#define D34RED(Y, X) \
	VEXTRACTF128 $1, Y, X12; \
	VADDPS X12, X, X; \
	VHADDPS X, X, X; \
	VHADDPS X, X, X
	D34RED(Y0, X0)
	D34RED(Y1, X1)
	D34RED(Y2, X2)
	D34RED(Y3, X3)
	D34RED(Y4, X4)
	D34RED(Y5, X5)
	D34RED(Y6, X6)
	D34RED(Y7, X7)
	D34RED(Y8, X8)
	D34RED(Y9, X9)
	D34RED(Y10, X10)
	D34RED(Y11, X11)
#undef D34RED

	MOVQ c_base+0(FP), R12
	MOVQ ldc+24(FP), R13
	SHLQ $2, R13
	VMOVSS X0, (R12)
	VMOVSS X1, 4(R12)
	VMOVSS X2, 8(R12)
	VMOVSS X3, 12(R12)
	ADDQ R13, R12
	VMOVSS X4, (R12)
	VMOVSS X5, 4(R12)
	VMOVSS X6, 8(R12)
	VMOVSS X7, 12(R12)
	ADDQ R13, R12
	VMOVSS X8, (R12)
	VMOVSS X9, 4(R12)
	VMOVSS X10, 8(R12)
	VMOVSS X11, 12(R12)
	VZEROUPPER
	RET

// The constants of expAVX, each replicated across the four lanes of a
// ymm operand: math.Exp's FMA-path constants (math/exp_amd64.s, same
// literals), the exponent bias, and the fast-path input range.
#define EXPV(off, val) \
	DATA expv<>+(off)(SB)/8, val; \
	DATA expv<>+(off+8)(SB)/8, val; \
	DATA expv<>+(off+16)(SB)/8, val; \
	DATA expv<>+(off+24)(SB)/8, val
EXPV(0, $1.4426950408889634073599246810018920)              // LOG2E
EXPV(32, $0.69314718055966295651160180568695068359375)      // LN2U
EXPV(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPV(96, $0.0625)
EXPV(128, $2.4801587301587301587e-5)
EXPV(160, $1.9841269841269841270e-4)
EXPV(192, $1.3888888888888888889e-3)
EXPV(224, $8.3333333333333333333e-3)
EXPV(256, $4.1666666666666666667e-2)
EXPV(288, $1.6666666666666666667e-1)
EXPV(320, $0.5)
EXPV(352, $1.0)
EXPV(384, $2.0)
EXPV(416, $0x3FF)                                           // exponent bias
EXPV(448, $-708.0)
EXPV(480, $709.0)
#undef EXPV
GLOBL expv<>(SB), RODATA|NOPTR, $512

// func expAVX(dst, src []float64) int
// dst[i] = math.Exp(src[i]) four lanes at a time for the first len(dst)&^3
// elements, by math.Exp's own FMA path (math/exp_amd64.s) instruction for
// instruction: the LOG2E multiply and round to the exponent k, the
// reduction x - k*LN2U - k*LN2L by two FNMADDs, the ×0.0625 scaling, the
// degree-8 Horner FMA chain, four x·(x+2) squarings whose last adds the 1
// by FMA, and 2^k shifted into an exponent field. Every lane therefore has
// math.Exp's bits wherever math.Exp takes that path, which is exactly the
// inputs in [-708, 709]. The kernel stops at the first four-lane block
// holding an input outside that range (or a NaN), before writing it, and
// returns that block's index — len(dst)&^3 when there is none — so the
// caller computes the block with math.Exp and resumes after it. dst may
// alias src.
TEXT ·expAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $-4, CX
	VMOVUPD expv<>+448(SB), Y14
	VMOVUPD expv<>+480(SB), Y15
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD $0x09, Y14, Y0, Y1 // NGE_US: x < -708 or NaN
	VCMPPD $0x06, Y15, Y0, Y2 // NLE_US: x > 709 or NaN
	VORPD  Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL DX, DX
	JNZ  expdone
	VMULPD expv<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	VFNMADD231PD expv<>+32(SB), Y1, Y0
	VFNMADD231PD expv<>+64(SB), Y1, Y0
	VMULPD expv<>+96(SB), Y0, Y0
	VMOVUPD expv<>+128(SB), Y1
	VFMADD213PD expv<>+160(SB), Y0, Y1
	VFMADD213PD expv<>+192(SB), Y0, Y1
	VFMADD213PD expv<>+224(SB), Y0, Y1
	VFMADD213PD expv<>+256(SB), Y0, Y1
	VFMADD213PD expv<>+288(SB), Y0, Y1
	VFMADD213PD expv<>+320(SB), Y0, Y1
	VFMADD213PD expv<>+352(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expv<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expv<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expv<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expv<>+384(SB), Y0, Y1
	VFMADD213PD expv<>+352(SB), Y1, Y0
	VPMOVSXDQ X2, Y3
	VPADDQ expv<>+416(SB), Y3, Y3
	VPSLLQ $52, Y3, Y3
	VMULPD Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exploop

expdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func maxShiftAVX(e, m []float64, l []float32, ld, c int)
// The softmax shift of SoftmaxXentInto over n = len(m) columns of c
// float32 rows l[ch*ld:]: m[j] is the channel maximum, taken as VMAXPD with
// the new value as the first source — exactly `if v > m { m = v }`, NaN and
// ±0 included — and e[ch*n+j] = float64(l[ch*ld+j]) - m[j]. Four columns
// per step, scalar tail; every pass walks one row.
TEXT ·maxShiftAVX(SB), NOSPLIT, $0-88
	MOVQ e_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ m_len+32(FP), BX
	MOVQ BX, CX
	ANDQ $-4, CX
	MOVQ l_base+48(FP), R8
	MOVQ ld+72(FP), R9
	SHLQ $2, R9
	MOVQ c+80(FP), R10

	// m = row 0.
	XORQ AX, AX
ms0:
	CMPQ AX, CX
	JGE  ms0tail
	VCVTPS2PD (R8)(AX*4), Y0
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX
	JMP  ms0
ms0tail:
	CMPQ AX, BX
	JGE  ms1init
	VCVTSS2SD (R8)(AX*4), X0, X0
	VMOVSD X0, (SI)(AX*8)
	INCQ AX
	JMP  ms0tail

	// m = max(row, m) for rows 1..c-1.
ms1init:
	MOVQ R8, R11
	MOVQ $1, DX
ms1row:
	CMPQ DX, R10
	JGE  ms2init
	ADDQ R9, R11
	XORQ AX, AX
ms1:
	CMPQ AX, CX
	JGE  ms1tail
	VCVTPS2PD (R11)(AX*4), Y0
	VMAXPD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ $4, AX
	JMP  ms1
ms1tail:
	CMPQ AX, BX
	JGE  ms1next
	VCVTSS2SD (R11)(AX*4), X0, X0
	VMAXSD (SI)(AX*8), X0, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ AX
	JMP  ms1tail
ms1next:
	INCQ DX
	JMP  ms1row

	// e row ch = row ch - m.
ms2init:
	MOVQ R8, R11
	MOVQ DI, R12
	MOVQ BX, R13
	SHLQ $3, R13
	XORQ DX, DX
ms2row:
	CMPQ DX, R10
	JGE  msdone
	XORQ AX, AX
ms2:
	CMPQ AX, CX
	JGE  ms2tail
	VCVTPS2PD (R11)(AX*4), Y0
	VSUBPD (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (R12)(AX*8)
	ADDQ $4, AX
	JMP  ms2
ms2tail:
	CMPQ AX, BX
	JGE  ms2next
	VCVTSS2SD (R11)(AX*4), X0, X0
	VSUBSD (SI)(AX*8), X0, X0
	VMOVSD X0, (R12)(AX*8)
	INCQ AX
	JMP  ms2tail
ms2next:
	ADDQ R9, R11
	ADDQ R13, R12
	INCQ DX
	JMP  ms2row

msdone:
	VZEROUPPER
	RET

// func xentGradAVX(grad []float32, q, e, z []float64, ld int, label []int32, weights []float32, inv float32)
// The gradient half of SoftmaxXentInto over n = len(z) columns of the c =
// len(e)/n exponential rows e[ch*n:]: z[j] = 0 + e[0][j] + e[1][j] + ...,
// then per row g = e/z, q[j] = g where label[j] == ch, g - 1 there, and
// grad[ch*ld+j] = float32(w*g) * inv with w = weights[j] (1 when weights is
// empty), a subnormal result stored as the zero of its sign. The scalar
// xentGrad's operations in its order, four columns per step; scalar tail.
TEXT ·xentGradAVX(SB), NOSPLIT, $0-156
	MOVQ grad_base+0(FP), R11
	MOVQ q_base+24(FP), SI
	MOVQ e_base+48(FP), R12
	MOVQ z_base+72(FP), R13
	MOVQ z_len+80(FP), BX
	MOVQ e_len+56(FP), AX
	XORQ DX, DX
	DIVQ BX
	MOVQ AX, R10                 // c
	MOVQ BX, CX
	ANDQ $-4, CX
	MOVQ label_base+104(FP), R8
	MOVQ weights_base+128(FP), R9
	MOVQ weights_len+136(FP), AX
	TESTQ AX, AX
	JNZ  xgw
	XORQ R9, R9
xgw:
	VBROADCASTSS inv+152(FP), X14
	VBROADCASTSD expv<>+352(SB), Y13 // 1.0

	// z = sum of the rows, ascending.
	XORQ AX, AX
xz:
	CMPQ AX, CX
	JGE  xztail
	VXORPD Y0, Y0, Y0
	LEAQ (R12)(AX*8), DI
	MOVQ R10, DX
xzrow:
	VADDPD (DI), Y0, Y0
	LEAQ (DI)(BX*8), DI
	DECQ DX
	JNZ  xzrow
	VMOVUPD Y0, (R13)(AX*8)
	ADDQ $4, AX
	JMP  xz
xztail:
	CMPQ AX, BX
	JGE  xginit
	VXORPD X0, X0, X0
	LEAQ (R12)(AX*8), DI
	MOVQ R10, DX
xztrow:
	VADDSD (DI), X0, X0
	LEAQ (DI)(BX*8), DI
	DECQ DX
	JNZ  xztrow
	VMOVSD X0, (R13)(AX*8)
	INCQ AX
	JMP  xztail

xginit:
	XORQ DX, DX                  // ch
	VPXOR X15, X15, X15          // ch in every int32 lane
	VPCMPEQD X12, X12, X12       // -1 in every int32 lane
	VPSRLD $1, X12, X4           // 0x7fffffff: all but the sign
	VPSRLD $9, X12, X5           // 0x007fffff: the largest subnormal
	VPXOR X4, X12, X6            // 0x80000000: the sign
xgrow:
	CMPQ DX, R10
	JGE  xgdone
	XORQ AX, AX
xg:
	CMPQ AX, CX
	JGE  xgtail
	VMOVUPD (R12)(AX*8), Y0
	VDIVPD (R13)(AX*8), Y0, Y0   // g = e / z
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD X15, X1, X1
	VPMOVSXDQ X1, Y1             // label == ch
	VMOVUPD (SI)(AX*8), Y2
	VBLENDVPD Y1, Y0, Y2, Y2
	VMOVUPD Y2, (SI)(AX*8)       // q = g there
	VSUBPD Y13, Y0, Y2
	VBLENDVPD Y1, Y2, Y0, Y0     // g - 1 there
	VMOVAPD Y13, Y3
	TESTQ R9, R9
	JZ   xgw1
	VCVTPS2PD (R9)(AX*4), Y3
xgw1:
	VMULPD Y0, Y3, Y0
	VCVTPD2PSY Y0, X0
	VMULPS X14, X0, X0
	VANDPS X4, X0, X1
	VPCMPGTD X5, X1, X1          // |g| above every subnormal
	VORPS X6, X1, X1
	VANDPS X1, X0, X0            // a subnormal g keeps only its sign
	VMOVUPS X0, (R11)(AX*4)
	ADDQ $4, AX
	JMP  xg
xgtail:
	CMPQ AX, BX
	JGE  xgnext
	VMOVSD (R12)(AX*8), X0
	VDIVSD (R13)(AX*8), X0, X0
	MOVLQSX (R8)(AX*4), DI
	CMPQ DI, DX
	JNE  xgt1
	VMOVSD X0, (SI)(AX*8)
	VSUBSD X13, X0, X0
xgt1:
	VMOVAPD X13, X3
	TESTQ R9, R9
	JZ   xgt2
	VCVTSS2SD (R9)(AX*4), X3, X3
xgt2:
	VMULSD X0, X3, X0
	VCVTSD2SS X0, X0, X0
	VMULSS X14, X0, X0
	VANDPS X4, X0, X1
	VPCMPGTD X5, X1, X1
	VORPS X6, X1, X1
	VANDPS X1, X0, X0
	VMOVSS X0, (R11)(AX*4)
	INCQ AX
	JMP  xgtail
xgnext:
	MOVQ ld+96(FP), DI
	LEAQ (R11)(DI*4), R11
	LEAQ (R12)(BX*8), R12
	INCQ DX
	VPSUBD X12, X15, X15         // ch + 1
	JMP  xgrow

xgdone:
	VZEROUPPER
	RET

// func reluGradAVX(dst, x, grad []float32)
// dst[i] = grad[i] where x[i] > 0, else +0: VCMPPS with GT_OQ gives an
// all-ones lane exactly where the scalar `v > 0` holds (NaN and ±0 compare
// false), and VANDPS keeps grad's bits under it and +0 elsewhere. Each
// block loads before it stores, so dst may alias x or grad.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ grad_base+48(FP), R8
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   rg8

rg16loop:
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS 32(SI)(AX*4), Y2
	VCMPPS $0x1e, Y0, Y1, Y1
	VCMPPS $0x1e, Y0, Y2, Y2
	VANDPS (R8)(AX*4), Y1, Y1
	VANDPS 32(R8)(AX*4), Y2, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  rg16loop

rg8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  rgtail
	VMOVUPS (SI)(AX*4), Y1
	VCMPPS $0x1e, Y0, Y1, Y1
	VANDPS (R8)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX

rgtail:
	CMPQ AX, CX
	JGE  rgdone
	VMOVSS (SI)(AX*4), X1
	VCMPSS $0x1e, X0, X1, X1
	VMOVSS (R8)(AX*4), X2
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  rgtail

rgdone:
	VZEROUPPER
	RET

// func adamAVX(p, g, m, v []float32, k AdamCoeffs)
// One Adam update, eight lanes at a time with a scalar tail, in adamGo's
// operations and association: m = b1*m + c1*g, v = b2*v + (c2*g)*g,
// mhat = m/bc1, vhat = v/bc2, s = sqrt(vhat) + eps, p = p - (lr*mhat)/s.
// Every step is one correctly rounded IEEE operation (no FMA), so each
// lane equals the scalar loop bit for bit.
TEXT ·adamAVX(SB), NOSPLIT, $0-128
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSS k_B1+96(FP), Y0
	VBROADCASTSS k_C1+100(FP), Y1
	VBROADCASTSS k_B2+104(FP), Y2
	VBROADCASTSS k_C2+108(FP), Y3
	VBROADCASTSS k_BC1+112(FP), Y4
	VBROADCASTSS k_BC2+116(FP), Y5
	VBROADCASTSS k_LR+120(FP), Y6
	VBROADCASTSS k_Eps+124(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   adamtail

adamloop:
	VMOVUPS (SI)(AX*4), Y8
	VMULPS (R8)(AX*4), Y0, Y9
	VMULPS Y8, Y1, Y10
	VADDPS Y10, Y9, Y9
	VMOVUPS Y9, (R8)(AX*4)
	VMULPS (R9)(AX*4), Y2, Y10
	VMULPS Y8, Y3, Y11
	VMULPS Y8, Y11, Y11
	VADDPS Y11, Y10, Y10
	VMOVUPS Y10, (R9)(AX*4)
	VDIVPS Y4, Y9, Y9
	VDIVPS Y5, Y10, Y10
	VSQRTPS Y10, Y10
	VADDPS Y7, Y10, Y10
	VMULPS Y9, Y6, Y9
	VDIVPS Y10, Y9, Y9
	VMOVUPS (DI)(AX*4), Y11
	VSUBPS Y9, Y11, Y11
	VMOVUPS Y11, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  adamloop

adamtail:
	CMPQ AX, CX
	JGE  adamdone
	VMOVSS (SI)(AX*4), X8
	VMOVSS (R8)(AX*4), X9
	VMULSS X9, X0, X9
	VMULSS X8, X1, X10
	VADDSS X10, X9, X9
	VMOVSS X9, (R8)(AX*4)
	VMOVSS (R9)(AX*4), X10
	VMULSS X10, X2, X10
	VMULSS X8, X3, X11
	VMULSS X8, X11, X11
	VADDSS X11, X10, X10
	VMOVSS X10, (R9)(AX*4)
	VDIVSS X4, X9, X9
	VDIVSS X5, X10, X10
	VSQRTSS X10, X10, X10
	VADDSS X7, X10, X10
	VMULSS X9, X6, X9
	VDIVSS X10, X9, X9
	VMOVSS (DI)(AX*4), X11
	VSUBSS X9, X11, X11
	VMOVSS X11, (DI)(AX*4)
	INCQ AX
	JMP  adamtail

adamdone:
	VZEROUPPER
	RET
