package tensor

import "math"

// vecBackend is the register-blocked CPU backend: the convolution forward
// (batch.go) and the backward's input gradient on a packed-panel
// micro-kernel, the weight gradient on twelve-accumulator dot products
// (indirect.go), and inner loops unrolled 4x so the compiler keeps four
// independent FMA chains in flight instead of one latency-bound
// accumulator. All slices are re-sliced to a common length before the hot
// loops, which lets the compiler prove every index in range and drop the
// bounds checks.
//
// Numerics: each output element is accumulated in a fixed order, so the
// backend is run-to-run deterministic. The order differs from the reference
// backend's strictly-sequential accumulation (pairwise sums inside each
// unrolled group, fused multiply-adds in the micro-kernel), so results can
// drift by a few ulps over a length-k reduction — the parity suite's
// k-scaled ulp tolerance is exactly this bound.
type vecBackend struct{}

func (vecBackend) Name() string { return "vec" }

// The vec kernels are selected once at init: the portable unrolled Go
// kernels below by default, swapped for AVX2+FMA assembly on amd64 CPUs
// that support it (backend_avx_amd64.go). Indirect calls are amortised
// over whole rows, so dispatch cost is noise.
var (
	dot4f        = dot4
	dot1f        = sdot
	axpy4f       = axpy4
	saxpyf       = saxpy
	reluf        = reluGo
	reluGradf    = reluGradGo
	adamf        = adamGo
	expf         = expGo
	maxShiftf    = maxShift
	xentGradf    = xentGrad
	vecKernelISA = "portable"

	// packTileInd24f is the packed GEMM's register-blocked micro-kernel
	// (packTileInd4x24AVX on capable amd64): a 4x24 C tile, B's rows read
	// through a row-offset table (gemmPacked, batch.go). nil means
	// unavailable, and the GEMM runs its axpy spans on every column.
	// dot3x4Indf is twelve dot products, three a rows by four B rows read
	// through such a table, each dot4f's bits (vecGemmDotInd).
	packTileInd24f func(c []float32, ldc int, ap, b []float32, offs []int32, nq, nt int, load bool)
	dot3x4Indf     = dot3x4Ind
)

// VecKernelISA reports which instruction set the vec backend's microkernels
// were selected for ("portable" or "avx2+fma"), for logs and bench output.
func VecKernelISA() string { return vecKernelISA }

// reluGo is the portable in-place ReLU kernel behind ReLUFlat.
func reluGo(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// reluGradGo is the portable ReLUGradInto kernel: dst[i] = grad[i] where
// x[i] > 0, else +0.
func reluGradGo(dst, x, grad []float32) {
	for i, v := range x {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

// AdamCoeffs are the per-step constants of one Adam update.
type AdamCoeffs struct {
	B1, C1   float32 // β1 and 1-β1
	B2, C2   float32 // β2 and 1-β2
	BC1, BC2 float32 // the bias corrections 1-β1^t and 1-β2^t
	LR, Eps  float32
}

// AdamStep applies one Adam update to the parameters p from their gradients
// g, updating the first and second moments m and v in place; g, m and v
// must be at least len(p) long. Both kernel sets compute adamGo's float32
// expression bit for bit: the AVX2 kernel keeps every operation and its
// association (no FMA contraction, which Go's compiler does not do at its
// default GOAMD64 level either), and its VDIVPS and VSQRTPS round exactly
// as the scalar DIVSS and SQRTSS Go emits.
func AdamStep(p, g, m, v []float32, k AdamCoeffs) {
	n := len(p)
	adamf(p, g[:n], m[:n], v[:n], k)
}

// adamGo is the portable AdamStep kernel.
func adamGo(p, g, m, v []float32, k AdamCoeffs) {
	for i := range p {
		gi := g[i]
		m[i] = k.B1*m[i] + k.C1*gi
		v[i] = k.B2*v[i] + k.C2*gi*gi
		mhat := m[i] / k.BC1
		vhat := v[i] / k.BC2
		p[i] -= k.LR * mhat / (float32(math.Sqrt(float64(vhat))) + k.Eps)
	}
}

// ExpInto writes math.Exp(src[i]) into dst[i] for every i < len(dst); src
// must be at least as long, and dst may alias it. The results are
// math.Exp's bit for bit on either kernel set: the AVX2+FMA kernel runs
// math.Exp's own FMA path four lanes at a time (math.Exp takes that path on
// every CPU the kernel is selected on), and a four-lane block holding an
// input outside [-708, 709] — where math.Exp leaves that path for its
// underflow, overflow and special-value handling — goes through math.Exp
// itself.
func ExpInto(dst, src []float64) { expf(dst, src[:len(dst)]) }

// expGo is the portable ExpInto kernel.
func expGo(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// ReLUFlat clamps d to max(d[i], 0) in place using the selected ReLU
// kernel (32-lane AVX on capable amd64, a scalar loop otherwise). The AVX
// kernel passes NaN and -0 through unchanged where the scalar `v < 0` test
// also leaves them; the two differ at most in the sign of a zero.
func ReLUFlat(d []float32) { reluf(d) }

// axpy4 computes dst[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j], the
// 4-row update of the packed GEMM's axpy spans (gemmAxpyPackedSpan). One
// pass streams four b-rows against one dst row, quartering the dst
// load/store traffic of four saxpy calls. The len hints eliminate all
// bounds checks in the loop body.
func axpy4(dst []float32, a0, a1, a2, a3 float32, x0, x1, x2, x3 []float32) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := range dst {
		dst[j] += (a0*x0[j] + a1*x1[j]) + (a2*x2[j] + a3*x3[j])
	}
}

// dot4 computes four dot products of a against b0..b3 in one pass over a,
// with the reduction additionally unrolled 2x (eight live accumulators).
// A single sdot chain stalls on add latency every element; eight
// independent chains keep the FPU pipeline full. The NT GEMM
// (vecGemmDotInd: the conv backward's weight gradient and MatMulABTInto)
// computes its bits, three a rows at a time through dot3x4Indf.
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var t0, t1, t2, t3 float32
	p := 0
	for ; p+1 < n; p += 2 {
		av, aw := a[p], a[p+1]
		s0 += av * b0[p]
		t0 += aw * b0[p+1]
		s1 += av * b1[p]
		t1 += aw * b1[p+1]
		s2 += av * b2[p]
		t2 += aw * b2[p+1]
		s3 += av * b3[p]
		t3 += aw * b3[p+1]
	}
	if p < n {
		av := a[p]
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return s0 + t0, s1 + t1, s2 + t2, s3 + t3
}

// convBwdTile is the input-channel tile of the conv backward's input
// gradient: dcols rows for convBwdTile channels (convBwdTile*KH*KW rows, a
// multiple of packMR) are computed and scattered into dx before the next
// tile reuses their scratch, so dcols never has to leave L2.
const convBwdTile = 4

// Conv2DBackwardWS implements Backend. gy is already the [OC, HW] matrix,
// so dW is the NT product gy x B^T over the forward's B, laid out by the
// same builder (newConvPlanes) and read in place (vecGemmDotInd): the bits
// MatMulABTInto gives on the lowering, three gy rows per pass. The input gradient
// dcols = W^T x gy is produced in the transposed layout [CKK, HW], whose
// col2im scatter is one vector add per row for stride-1 same-width convs
// (vecCol2imT). dcols runs on the packed GEMM over a packed W^T, with gy
// as its dense B, one convBwdTile-channel tile at a time. Every element is
// still one ascending-k FMA chain (or the axpy spans' order on portable
// kernels) and every dx element belongs to one channel, so the tiling
// changes no bit.
func (vecBackend) Conv2DBackwardWS(ws *Workspace, x, w, gy *Tensor, s ConvSpec, needInput bool) (dx, dw, db *Tensor) {
	oc := w.Dim(0)
	c, h, wid := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := s.OutSize(h, wid)
	hw := oh * ow
	kk := s.KH * s.KW
	ckk := c * kk
	// dW = gy x B^T -> [OC, CKK]: dot products of hw-long rows.
	dw = ws.GetDirty(oc, c, s.KH, s.KW)
	p := newConvPlanes(ws, x, s)
	tail := ws.GetDirty(ckk%4, hw)
	vecGemmDotInd(dw.Data, gy.Data, p, oc, ckk, tail.Data)
	ws.Put(tail)
	ws.Put(p.leased)
	db = ws.GetDirty(oc)
	rowSums(db.Data, gy.Data, hw)
	if needInput {
		panels := ws.GetDirty(packedSize(ckk, oc))
		packWeightsInto(panels.Data, w.Data, ckk, oc, 1, ckk)
		g := newDenseOperand(ws, gy.Data, oc, hw)
		tile := min(c, convBwdTile)
		dcols := ws.GetDirty(tile*kk, hw)
		dx = ws.Get(c, h, wid)
		bs := packedBlockStride(oc)
		for c0 := 0; c0 < c; c0 += tile {
			nc := min(tile, c-c0)
			gemmPacked(dcols.Data, panels.Data[c0*kk/packMR*bs:], g, nc*kk, oc, false)
			vecCol2imT(dx, dcols.Data, c0, nc, s, oh, ow)
		}
		ws.Put(dcols)
		ws.Put(g.leased)
		ws.Put(panels)
	}
	return dx, dw, db
}

// rowSums writes sums[r] = the sum of row r of g (rows of n floats), in
// ascending order: the bias gradient's per-channel sums of gy. Four rows
// run at a time, each on its own sequential chain, so every sum has the
// one-row loop's bits and the four chains overlap the add latency that a
// single chain waits on.
func rowSums(sums, g []float32, n int) {
	r := 0
	for ; r+3 < len(sums); r += 4 {
		g0, g1, g2, g3 := g[r*n:(r+1)*n], g[(r+1)*n:(r+2)*n], g[(r+2)*n:(r+3)*n], g[(r+3)*n:(r+4)*n]
		g1, g2, g3 = g1[:len(g0)], g2[:len(g0)], g3[:len(g0)]
		var s0, s1, s2, s3 float32
		for i, v := range g0 {
			s0 += v
			s1 += g1[i]
			s2 += g2[i]
			s3 += g3[i]
		}
		sums[r], sums[r+1], sums[r+2], sums[r+3] = s0, s1, s2, s3
	}
	for ; r < len(sums); r++ {
		var s float32
		for _, v := range g[r*n : (r+1)*n] {
			s += v
		}
		sums[r] = s
	}
}

// vecCol2imT scatters nc channels' rows of the transposed gradient layout
// ([nc*KH*KW, HW], channel c0 first) back into a CHW tensor, accumulating
// into dst's existing contents row by row, so every dst element receives
// its contributions in ascending row order. A stride-1 same-width row is
// one vector add (col2imSpan); other rows scatter element by element.
// cd is scratch: the span form clears entries of it. dst must hold no -0,
// which a tensor that starts at +0 never does: an IEEE sum is -0 only when
// both addends are.
func vecCol2imT(dst *Tensor, cd []float32, c0, nc int, s ConvSpec, oh, ow int) {
	h, w := dst.Dim(1), dst.Dim(2)
	od := dst.Data
	kk := s.KH * s.KW
	hw := oh * ow
	span := s.SH == 1 && s.SW == 1 && ow == w
	for p := 0; p < nc*kk; p++ {
		ch, r := c0+p/kk, p%kk
		ky, kx := r/s.KW, r%s.KW
		plane := od[ch*h*w : (ch+1)*h*w]
		row := cd[p*hw : (p+1)*hw]
		if span {
			col2imSpan(plane, row, h, w, s, oh, ky, kx)
			continue
		}
		for oy := 0; oy < oh; oy++ {
			iy := oy*s.SH - s.PH + ky
			if iy < 0 || iy >= h {
				continue
			}
			for ox := 0; ox < ow; ox++ {
				ix := ox*s.SW - s.PW + kx
				if ix >= 0 && ix < w {
					plane[iy*w+ix] += row[oy*ow+ox]
				}
			}
		}
	}
}

// col2imSpan adds one stride-1 same-width lowered row (kernel offset ky, kx)
// into its h*w input plane: im2colPlaneT's one-copy fast path run
// backwards. Row entry oy*w+ox lands at a constant shift from its index, so
// the valid rows' span is one saxpyf with a = 1 once the entries between
// them — those whose column falls outside the image, and would wrap into
// the neighbouring image row — are cleared to +0, which adds exactly
// nothing to a plane without -0.
func col2imSpan(plane, row []float32, h, w int, s ConvSpec, oh, ky, kx int) {
	off := kx - s.PW // ix = ox + off
	lo, hi := max(-off, 0), min(w-off, w)
	oylo := min(max(s.PH-ky, 0), oh) // first oy with iy = oy - (PH - ky) in range
	oyhi := min(h+s.PH-ky, oh)
	if hi <= lo || oyhi <= oylo {
		return
	}
	if lo > 0 || hi < w {
		for oy := oylo; oy+1 < oyhi; oy++ {
			clear(row[oy*w+hi : (oy+1)*w+lo])
		}
	}
	d0 := (oylo-s.PH+ky)*w + off + lo
	r0 := oylo*w + lo
	n := (oyhi-1-oylo)*w + hi - lo
	saxpyf(plane[d0:d0+n], 1, row[r0:r0+n])
}
