package tensor

import "unsafe"

// This file is the packed GEMM's B operand: a row-offset table into the
// floats that hold B, so that the GEMM (gemmPacked, batch.go) and the
// backward's weight gradient (vecGemmDotInd) read every B row in place.
//
// B is a convolution's transposed im2col matrix [CKK, OH*OW], and one
// builder, newConvPlanes, lays it out for every convolution: the shape
// alone picks one of three layouts (Dukhan, "The Indirect Convolution
// Algorithm", arXiv:1907.02129, for the two that copy the input):
//
//   - a 1x1 stride-1 unpadded conv reads its input viewed as [C, H*W],
//     which already is B: offs[p] = p*H*W, one segment a row
//     (newDenseOperand, which also takes any other dense matrix);
//   - a stride-1 same-size conv at a width that is a multiple of 8 copies
//     its input once into zero-bordered planes [C, H+2PH, W+2PW], and row
//     p = (ch, ky, kx) of B at output row oy is the padded row
//     ch*(H+2PH) + oy + ky shifted by kx:
//
//     B[p][oy*W+ox] = planes[offs[p] + oy*(W+2PW) + ox]
//     offs[p]       = ch*(H+2PH)*(W+2PW) + ky*(W+2PW) + kx
//
//     so B's row is H segments of W floats;
//   - every other conv, strided ones included, gets shifted copies of its
//     input, whose rows hold the lowering's own rows: B's row is one
//     segment of OH*OW floats.
//
// The GEMMs walk k in the same order on every layout, and a tile or an axpy
// span never crosses a segment, so every element is the same FMA chain (or
// the same Go expression) as on the lowered matrix, bit for bit. The
// backward's weight gradient (vecGemmDotInd) carries dot3x4Indf's twelve
// accumulators across segments, which keeps each lane's chain only when a
// segment is a multiple of 8 floats long — which is why the planes are only
// laid out at such widths, and why a one-segment row of any other length
// takes dot4f and dot1f instead. The dense matrix products (ops.go) read
// their B through newDenseOperand on the same two kernels.

// bOperand is the packed GEMM's B: the floats that hold it and the
// row-offset table into them. B's row p is h segments of w floats, wp
// apart, from offs[p]; h*w is the GEMM's column count. leased is the
// workspace lease the caller returns.
type bOperand struct {
	pl       []float32
	offs     []int32 // [k]; the last entry is the largest
	h, w, wp int
	leased   *Tensor
}

// checkReads panics unless every B read through p — the largest offset's
// last segment — lies inside p.pl. The drivers call it before a kernel that
// does not check its own reads.
func (p bOperand) checkReads() {
	if len(p.offs) > 0 {
		_ = p.pl[int(p.offs[len(p.offs)-1])+(p.h-1)*p.wp+p.w-1]
	}
}

// newConvPlanes builds the B operand of the convolution s over x
// [c, h, w] in a lease of ws, in the layout the shape picks (the file
// header lists the three). The caller returns p.leased to ws.
//
// The shifted copies are, for each channel, kernel column kx and row
// phase ry < min(SH, KH), one im2colPlaneT copy for kernel offset (ry, kx)
// that runs OH + (KH-1)/SH output rows of OW. B's row (ch, ky, kx) is the
// OH rows of the copy for phase ky mod SH from row ky/SH on: input row
// (oy + ky/SH)*SH - PH + ky mod SH, which is the lowering's. Within one
// (ch, kx) the copy holding ky = KH-1 comes last, so the table's last
// entry is its largest and its segment ends the lease (checkReads). At
// stride 1 this is KW copies a channel, each shifted by one kernel column
// with its edge zeroed. The shifted copies at every stride-1 width, with
// the segment loops gone, were measured against the padded planes
// (GOMAXPROCS=1, ROADMAP 8(c)): they win the dW of most convs and sb6's
// 3x1 conv, lose out1's and out2's forwards (median +2 to +11 %), and the
// partial step ran faster with them in only 25 of 74 alternating pairs —
// their KW copies cost more than one padded plane.
func newConvPlanes(ws *Workspace, x *Tensor, s ConvSpec) bOperand {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	ckk := c * s.KH * s.KW
	if conv1x1Direct(s) {
		return newDenseOperand(ws, x.Data, ckk, h*w)
	}
	oh, ow := s.OutSize(h, w)
	hp, wp := h+2*s.PH, w+2*s.PW
	shifted := s.SH != 1 || s.SW != 1 || oh != h || ow != w || w%8 != 0
	nph, rows := min(s.SH, s.KH), oh+(s.KH-1)/s.SH // a shifted copy's phases and rows
	np := c * hp * wp
	if shifted {
		np = c * s.KW * nph * rows * ow
	}
	t := ws.GetDirty(np + ckk)
	p := bOperand{pl: t.Data[:np], h: h, w: w, wp: wp, leased: t}
	// The table is the lease's tail viewed as int32s (both 4 bytes wide):
	// workspaces pool only float32 tensors.
	p.offs = unsafe.Slice((*int32)(unsafe.Pointer(&t.Data[np])), ckk)
	xd := x.Data
	if shifted {
		p.h, p.w, p.wp = 1, oh*ow, oh*ow
		last := (s.KH - 1) % s.SH // the phase of ky = KH-1
		for ch := 0; ch < c; ch++ {
			plane := xd[ch*h*w : (ch+1)*h*w]
			for kx := 0; kx < s.KW; kx++ {
				for ry := 0; ry < nph; ry++ {
					o := ((ch*s.KW+kx)*nph + (ry+nph-1-last)%nph) * rows * ow
					im2colPlaneT(p.pl[o:o+rows*ow], plane, h, w, s, rows, ow, ry, kx)
					for ky := ry; ky < s.KH; ky += s.SH {
						p.offs[(ch*s.KH+ky)*s.KW+kx] = int32(o + ky/s.SH*ow)
					}
				}
			}
		}
		return p
	}
	for ch := 0; ch < c; ch++ {
		dst := p.pl[ch*hp*wp : (ch+1)*hp*wp]
		clear(dst[:s.PH*wp+s.PW])
		for y := 0; y < h; y++ {
			row := dst[(s.PH+y)*wp+s.PW:]
			copy(row[:w], xd[(ch*h+y)*w:(ch*h+y+1)*w])
			if y < h-1 {
				clear(row[w : w+2*s.PW])
			}
		}
		clear(dst[(s.PH+h)*wp-s.PW:])
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				p.offs[(ch*s.KH+ky)*s.KW+kx] = int32(ch*hp*wp + ky*wp + kx)
			}
		}
	}
	return p
}

// newDenseOperand is the operand of a dense [k, n] matrix b: one segment
// of n floats per row, row p at p*n. Its table is leased from ws, as
// newConvPlanes leases its own: the lease viewed as int32s. The caller
// returns p.leased to ws.
func newDenseOperand(ws *Workspace, b []float32, k, n int) bOperand {
	t := ws.GetDirty(k)
	p := bOperand{pl: b[:k*n], h: 1, w: n, wp: n, leased: t}
	p.offs = unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(t.Data))), k)
	for i := range p.offs {
		p.offs[i] = int32(i * n)
	}
	return p
}

// row returns segment oy of B's row j.
func (p bOperand) row(j, oy int) []float32 {
	o := int(p.offs[j]) + oy*p.wp
	return p.pl[o : o+p.w]
}

// vecGemmDotInd is the NT GEMM, a convolution's weight gradient and
// MatMulABTInto: cd [m, n] = ad [m, h*w] x B^T with B's n rows read through
// p. Every element is what dot4f (four B rows at a time) or dot1f (the n%4
// leftover rows) gives for its a row against its B row, as one whole row:
// on a dense operand, these are the bits of row-wise dot products. Each
// twelve-product group runs dot3x4Indf, whose accumulators cross segments
// without a break and whose rows are dot4f's; a leftover a row runs it with
// all three rows on that one row, and the n%4 leftover B rows are copied
// out to tail ((n%4) * h*w floats) and taken through dot1f. B rows whose one
// segment is not a multiple of 8 long (dot3x4IndAVX takes no tail and
// dot4Ind drops an odd element; newConvPlanes lays out segments only at
// such widths) run dot4f and dot1f in place instead.
func vecGemmDotInd(cd, ad []float32, p bOperand, m, n int, tail []float32) {
	p.checkReads()
	h, w := p.h, p.w
	k := h * w
	n4 := n &^ 3
	if w%8 != 0 {
		for i := 0; i < m; i++ {
			arow, crow := ad[i*k:(i+1)*k], cd[i*n:(i+1)*n]
			for j := 0; j < n4; j += 4 {
				crow[j], crow[j+1], crow[j+2], crow[j+3] = dot4f(arow, p.row(j, 0), p.row(j+1, 0), p.row(j+2, 0), p.row(j+3, 0))
			}
			for j := n4; j < n; j++ {
				crow[j] = dot1f(arow, p.row(j, 0))
			}
		}
		return
	}
	for j := n4; j < n; j++ {
		for oy := 0; oy < h; oy++ {
			copy(tail[(j-n4)*k+oy*w:], p.row(j, oy))
		}
	}
	tailDot := func(arow []float32, crow []float32, j0, je int) {
		for j := j0; j < je; j++ {
			crow[j] = dot1f(arow, tail[(j-n4)*k:(j-n4+1)*k])
		}
	}
	for jb := 0; jb < n; jb += gemmJB {
		je := min(jb+gemmJB, n)
		je4 := min(je, n4)
		i := 0
		for ; i+2 < m; i += 3 {
			for j := jb; j < je4; j += 4 {
				dot3x4Indf(cd[i*n+j:i*n+2*n+j+4], n, ad[i*k:(i+3)*k], k, p.pl, p.offs[j:j+4], h, w, p.wp)
			}
			for r := i; r < i+3; r++ {
				tailDot(ad[r*k:(r+1)*k], cd[r*n:(r+1)*n], je4, je)
			}
		}
		for ; i < m; i++ {
			for j := jb; j < je4; j += 4 {
				dot3x4Indf(cd[i*n+j:i*n+j+4], 0, ad[i*k:(i+1)*k], 0, p.pl, p.offs[j:j+4], h, w, p.wp)
			}
			tailDot(ad[i*k:(i+1)*k], cd[i*n:(i+1)*n], je4, je)
		}
	}
}

// dot3x4Ind is the portable form of dot3x4IndAVX: c[r*ldc+j] is the dot
// product of a's row r (at r*lda, h*w long) against B's row offs[j] read
// through the padded planes b (r < 3, j < 4), each through dot4Ind. w must
// be even, which keeps dot4's even/odd accumulator pairs on the lowered
// row's pairs, so the result is dot4's on the lowered rows bit for bit.
func dot3x4Ind(c []float32, ldc int, a []float32, lda int, b []float32, offs []int32, h, w, wp int) {
	for r := 0; r < 3; r++ {
		o := r * ldc
		c[o], c[o+1], c[o+2], c[o+3] = dot4Ind(a[r*lda:r*lda+h*w], b, offs, h, w, wp)
	}
}

// dot4Ind is dot4 against four B rows read through the padded planes b,
// segment by segment: the same products into the same two accumulators per
// row, in the same order.
func dot4Ind(a, b []float32, offs []int32, h, w, wp int) (s0, s1, s2, s3 float32) {
	o0, o1, o2, o3 := int(offs[0]), int(offs[1]), int(offs[2]), int(offs[3])
	var t0, t1, t2, t3 float32
	for y := 0; y < h; y++ {
		ar := a[y*w : (y+1)*w]
		r := y * wp
		b0, b1, b2, b3 := b[o0+r:o0+r+w], b[o1+r:o1+r+w], b[o2+r:o2+r+w], b[o3+r:o3+r+w]
		for x := 0; x+1 < w; x += 2 {
			av, aw := ar[x], ar[x+1]
			s0 += av * b0[x]
			t0 += aw * b0[x+1]
			s1 += av * b1[x]
			t1 += aw * b1[x+1]
			s2 += av * b2[x]
			t2 += aw * b2[x+1]
			s3 += av * b3[x]
			t3 += aw * b3[x+1]
		}
	}
	return s0 + t0, s1 + t1, s2 + t2, s3 + t3
}
