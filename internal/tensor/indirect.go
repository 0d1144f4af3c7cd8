package tensor

import "unsafe"

// This file is the packed GEMM's B operand: a row-offset table into the
// floats that hold B, so that the GEMM (gemmPacked, batch.go) and the
// backward's weight gradient (vecGemmDotInd) read every B row in place.
//
// For the stride-1 same-size convolutions it is the indirect convolution
// (Dukhan, "The Indirect Convolution Algorithm", arXiv:1907.02129):
// instead of lowering the input to the transposed im2col matrix B
// [CKK, OH*OW], the input is copied once into zero-bordered planes
// [C, H+2PH, W+2PW]. Row p = (ch, ky, kx) of B at output row oy is the
// padded row ch*(H+2PH) + oy + ky shifted by kx, so
//
//	B[p][oy*W+ox] = planes[offs[p] + oy*(W+2PW) + ox]
//	offs[p]       = ch*(H+2PH)*(W+2PW) + ky*(W+2PW) + kx
//
// B's row is then H segments of W floats; where W is not a multiple of 8
// the planes are laid out so that it is one segment of H*W instead
// (newConvPlanes). Every other B — a lowering, or an activation or a
// gradient viewed as a matrix — is dense, with offs[p] = p*N and one
// segment of N floats (newDenseOperand). The GEMMs walk k in the same order
// on every layout, and a tile or an axpy span never crosses a segment, so
// every element is the same FMA chain (or the same Go expression) as on the
// lowered matrix, bit for bit. The backward's weight gradient
// (vecGemmDotInd) carries dot3x4's twelve accumulators across segments,
// which keeps each lane's chain only when a segment is a multiple of 8
// floats long — so that, through the choice of layout, makes the shape test
// H*W % 8 == 0 (convIndirectOK).

// convIndirectOK reports whether a convolution of an h x w input runs on the
// indirect path: stride 1, an output the input's size, a kernel larger than
// 1x1 (a 1x1 same conv reads its input as B directly) and h*w a positive
// multiple of 8.
func convIndirectOK(s ConvSpec, h, w int) bool {
	if s.SH != 1 || s.SW != 1 || conv1x1Direct(s) || h <= 0 || w <= 0 || h*w%8 != 0 {
		return false
	}
	oh, ow := s.OutSize(h, w)
	return oh == h && ow == w
}

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

// newConvPlanes lays x [c, h, w] out for s in a lease of ws and writes the
// row-offset table beside it. The caller returns p.leased to ws.
//
// A width that is a multiple of 8 gets the zero-bordered planes
// [c, h+2PH, w+2PW], whose B rows are h segments of w floats. Any other
// gets KW copies of each channel, each shifted by one kernel column with
// its edge zeroed — im2colPlaneT's rows for ky = 0 over the h+2PH padded
// rows — so that every B row is one contiguous segment of h*w floats (the
// lowering's own row, read in place). The shifted copies at every width,
// with the segment loops gone, were measured against this split
// (GOMAXPROCS=1, ROADMAP 8(c)): they win the dW of most convs and sb6's
// 3x1 conv, lose out1's and out2's forwards (median +2 to +11 %), and the
// partial step ran faster with them in only 25 of 74 alternating pairs —
// their KW copies cost more than one padded plane.
func newConvPlanes(ws *Workspace, x *Tensor, s ConvSpec) bOperand {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	hp, wp := h+2*s.PH, w+2*s.PW
	np, ckk := c*hp*wp, c*s.KH*s.KW
	shifted := w%8 != 0
	if shifted {
		np = c * s.KW * hp * w
	}
	t := ws.GetDirty(np + ckk)
	p := bOperand{pl: t.Data[:np], h: h, w: w, wp: wp, leased: t}
	// The table is the lease's tail viewed as int32s (both 4 bytes wide):
	// workspaces pool only float32 tensors.
	p.offs = unsafe.Slice((*int32)(unsafe.Pointer(&t.Data[np])), ckk)
	xd := x.Data
	if shifted {
		p.h, p.w, p.wp = 1, h*w, h*w
		for ch := 0; ch < c; ch++ {
			plane := xd[ch*h*w : (ch+1)*h*w]
			for kx := 0; kx < s.KW; kx++ {
				o := (ch*s.KW + kx) * hp * w
				im2colPlaneT(p.pl[o:o+hp*w], plane, h, w, s, hp, w, 0, kx)
				for ky := 0; ky < s.KH; ky++ {
					p.offs[(ch*s.KH+ky)*s.KW+kx] = int32(o + ky*w)
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

// vecGemmDotInd is vecGemmDot for the weight gradient of an indirect
// convolution: cd [m, n] = ad [m, h*w] x B^T with B's n rows read through p.
// Each twelve-product group runs dot3x4Indf, whose accumulators cross
// segments without a break; a leftover a row runs it with all three rows
// on that one row (dot3x4 is dot4 row by row, what vecGemmDot's leftover
// rows compute), and the n%4 leftover B rows, which vecGemmDot takes through
// dot1f, are copied out to tail ((n%4) * h*w floats) and taken the same way.
func vecGemmDotInd(cd, ad []float32, p bOperand, m, n int, tail []float32) {
	p.checkReads()
	h, w := p.h, p.w
	k := h * w
	n4 := n &^ 3
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
// row's pairs, so the result is dot3x4's on the lowered rows bit for bit.
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
