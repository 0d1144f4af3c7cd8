package tensor

// AVX2+FMA kernel selection for the vec backend. Detection runs once at
// init: CPUID must report FMA, AVX and AVX2, and the OS must have enabled
// YMM state saving (OSXSAVE + XCR0[2:1]). When any of that is missing —
// or SHADOWTUTOR_NOAVX is set — the vec backend stays on its portable
// unrolled Go kernels, so the backend works (and is parity-tested)
// everywhere amd64 or not.

import (
	"math"
	"os"
)

//go:noescape
func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0Asm() (eax, edx uint32)

//go:noescape
func dot4AVX(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)

//go:noescape
func dotAVX(a, b []float32) float32

//go:noescape
func axpy4AVX(dst []float32, a0, a1, a2, a3 float32, x0, x1, x2, x3 []float32)

//go:noescape
func saxpyAVX(dst []float32, a float32, x []float32)

//go:noescape
func packTileInd4x24AVX(c []float32, ldc int, ap, b []float32, offs []int32, nq, nt int, load bool)

//go:noescape
func dot3x4IndAVX(c []float32, ldc int, a []float32, lda int, b []float32, offs []int32, h, w, wp int)

//go:noescape
func reluAVX(d []float32)

//go:noescape
func reluGradAVX(dst, x, grad []float32)

//go:noescape
func adamAVX(p, g, m, v []float32, k AdamCoeffs)

//go:noescape
func expAVX(dst, src []float64) int

//go:noescape
func maxShiftAVX(e, m []float64, l []float32, ld, c int)

//go:noescape
func xentGradAVX(grad []float32, q, e, z []float64, ld int, label []int32, weights []float32, inv float32)

func init() {
	if !detectAVX() || os.Getenv("SHADOWTUTOR_NOAVX") != "" {
		return
	}
	dot4f = dot4AVX
	dot1f = dotAVX
	axpy4f = axpy4AVX
	saxpyf = saxpyAVX
	reluf = reluAVX
	reluGradf = reluGradAVX
	adamf = adamAVX
	expf = expVec
	maxShiftf = maxShiftAVX
	xentGradf = xentGradAVX
	packTileInd24f = packTileInd4x24AVX
	dot3x4Indf = dot3x4IndAVX
	vecKernelISA = "avx2+fma"
}

func detectAVX() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const fmaBit = 1 << 12
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xeax, _ := xgetbv0Asm()
	if xeax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// expVec is ExpInto on expAVX: the kernel runs until a four-lane block
// leaves its fast range, math.Exp computes that block, and the kernel
// resumes after it; math.Exp also takes the len%4 tail.
func expVec(dst, src []float64) {
	n4 := len(dst) &^ 3
	for i := 0; ; i += 4 {
		i += expAVX(dst[i:n4], src[i:n4])
		if i >= n4 {
			break
		}
		for j := i; j < i+4; j++ {
			dst[j] = math.Exp(src[j])
		}
	}
	expGo(dst[n4:], src[n4:])
}
