package tensor

// This file is vec's convolution forward and the pieces it is made of: the
// packed panel-blocked weight layout, the one GEMM over those panels, and
// the copy that fills a row of the transposed im2col matrix. That GEMM is
// the package's only NN/TN product: the backward's input gradient and the
// dense MatMulInto and MatMulATBInto (ops.go) run on it too.
//
// One sample is one GEMM of the weight [OC, CKK] by the transposed im2col
// matrix B [CKK, OH*OW], whose product is the [OC, OH*OW] result in place —
// no output transposition. The GEMM reads B's rows through a row-offset
// table (a bOperand), and one builder, newConvPlanes, lays B out in one of
// three layouts by shape: the input itself for a 1x1 stride-1 unpadded
// conv, zero-bordered planes for a stride-1 same-size conv at a width that
// is a multiple of 8, and shifted copies of the input for any other
// (indirect.go says how each is read). No convolution lowers its input.
//
// Packed panels are per-call scratch. Every forward packs its weight into a
// workspace lease and returns the lease before it returns, so a weight
// changed by any write — an optimizer step, CopyFrom, a plain Data[i] = v
// — is seen by the next kernel because there is nothing to invalidate. The
// repacking is not free: packWeightsInto was 12.5 to 13.4 % flat of
// BenchmarkStudentInference's profile, since the client re-packs every
// weight on every frame though its weights change once per diff. Keeping
// the panels as versioned state is ROADMAP item 22.
//
// Numerics: every output element is accumulated in ascending-k order. Where
// the AVX2+FMA kernels are live that is one sequential FMA chain — in the
// 4x24 micro-kernel tiles and, identically, in the axpy spans that take the
// ragged edges (axpy4AVX is four sequential FMAs) — so which tile a column
// lands in does not change its value. Where they are not (non-amd64, no
// AVX2+FMA, SHADOWTUTOR_NOAVX) every column runs the axpy spans, whose
// per-element order does not depend on the span either.

// packMR is the GEMM micro-kernel row-block height: the packed layout
// interleaves packMR weight rows so one pass over a B panel updates packMR
// destination rows, dividing B traffic by packMR.
const packMR = 4

// packedBlockStride is the float count of one packMR row block: k4*4 quad
// floats plus (k-k4)*4 tail floats = 4*k.
func packedBlockStride(k int) int { return 4 * k }

// packedSize returns the total float count of the packed layout.
func packedSize(rows, k int) int {
	return (rows + packMR - 1) / packMR * packedBlockStride(k)
}

// packWeightsInto writes the packed layout of a [rows, k] matrix whose
// element (i, p) is wd[i*rs+p*cs] — a weight tensor viewed as [Dim(0),
// Len()/Dim(0)] (rs = k, cs = 1), or its transpose (rs = 1, cs = rows) —
// into pd, which must have packedSize(rows, k) elements: rows are grouped
// into blocks of packMR, and within a block the coefficients are stored
// quad-major — for each aligned group of four k positions, 4x4 floats laid
// out row-by-row, followed by the k%4 tail columns at four floats each.
// Every coefficient a kernel row-block step needs is therefore one or two
// cache lines. Rows past the end of a ragged final block are zero-filled so
// kernel reads of a dirty buffer are always defined.
func packWeightsInto(pd, wd []float32, rows, k, rs, cs int) {
	k4 := k &^ 3
	bs := packedBlockStride(k)
	nb := (rows + packMR - 1) / packMR
	for ib := 0; ib < nb; ib++ {
		blk := pd[ib*bs : (ib+1)*bs]
		nr := min(packMR, rows-ib*packMR)
		if nr < packMR {
			clear(blk)
		}
		for r := 0; r < nr; r++ {
			e := (ib*packMR + r) * rs
			for p := 0; p < k4; p += 4 {
				d := blk[p*4+r*4 : p*4+r*4+4]
				d[0], d[1], d[2], d[3] = wd[e+p*cs], wd[e+(p+1)*cs], wd[e+(p+2)*cs], wd[e+(p+3)*cs]
			}
			for p := k4; p < k; p++ {
				blk[4*p+r] = wd[e+p*cs]
			}
		}
	}
}

// gemmAxpyPackedSpan is gemmPacked's axpy body over row blocks [blo, bhi)
// and the column span [jb, je), B's row p at bd[offs[p]:]: it takes the
// ragged edges of the micro-kernel tiles and, on the portable kernels,
// every column. Its per-element order (ascending gemmKC panels, quads via
// axpy4f, the tail via saxpyf, all-zero quads skipped) is the same whatever
// the span.
func gemmAxpyPackedSpan(cd, pd, bd []float32, m, ldc int, offs []int32, k int, accumulate bool, blo, bhi, jb, je int) {
	k4 := k &^ 3
	bs := packedBlockStride(k)
	for kb := 0; kb < k; kb += gemmKC {
		ke := kb + gemmKC
		if ke > k {
			ke = k
		}
		qend := ke
		if qend > k4 {
			qend = k4
		}
		tlo := kb
		if tlo < k4 {
			tlo = k4
		}
		for ib := blo; ib < bhi; ib++ {
			base := ib * bs
			rmax := m - ib*packMR
			if rmax > packMR {
				rmax = packMR
			}
			for r := 0; r < rmax; r++ {
				i := ib*packMR + r
				crow := cd[i*ldc+jb : i*ldc+je]
				if kb == 0 && !accumulate {
					clear(crow)
				}
				for p := kb; p+3 < qend; p += 4 {
					o := base + (p>>2)*16 + r*4
					a0, a1, a2, a3 := pd[o], pd[o+1], pd[o+2], pd[o+3]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					b0, b1, b2, b3 := int(offs[p]), int(offs[p+1]), int(offs[p+2]), int(offs[p+3])
					axpy4f(crow, a0, a1, a2, a3,
						bd[b0+jb:b0+je], bd[b1+jb:b1+je], bd[b2+jb:b2+je], bd[b3+jb:b3+je])
				}
				for p := tlo; p < ke; p++ {
					av := pd[base+4*k4+(p-k4)*4+r]
					if av == 0 {
						continue
					}
					b0 := int(offs[p])
					saxpyf(crow, av, bd[b0+jb:b0+je])
				}
			}
		}
	}
}

// kcMicro and ncMicro are the reduction and column panels of the packed
// GEMM. A kcMicro x ncMicro B panel is 240 KiB — sized to stay resident in
// a 256 KiB L2 while EVERY row block streams against it, so B pays one trip
// from outer memory per panel instead of one per row block (the difference
// between ~45 and ~65 GFLOP/s on a single Haswell-class core, whose L3
// cannot feed the kernel). kcMicro is larger than the axpy spans' gemmKC
// because each reduction panel costs one extra load+store round trip of the
// C tile, and the C window here (4 x ncMicro per tile pass) is small enough
// that fewer, deeper panels win.
const kcMicro = 512

const ncMicro = 120

// gemmPacked is the convolutions' GEMM: cd [m, h*w] (+)= packed(A) x B,
// with B's k rows read through p as h segments of w floats. Full packMR row
// blocks run the register-blocked micro-kernel on 24-column tiles inside a
// segment, holding the whole C tile in ymm accumulators for a reduction
// panel: the axpy spans stream each C row from memory once per k-quad, the
// micro-kernel touches C once per panel and shares every B load among four
// rows. A segment's remaining columns, the ragged row block (the packed
// layout zero-pads it, but the kernel would write lanes past row m-1 of C)
// and the portable kernels run gemmAxpyPackedSpan with the same table. k
// goes in kcMicro panels and columns in blocks of at most ncMicro: whole
// segments while they fit, ncMicro-wide pieces of one segment otherwise.
func gemmPacked(cd, pd []float32, p bOperand, m, k int, accumulate bool) {
	h, w, wp := p.h, p.w, p.wp
	hw := h * w
	if k == 0 || hw == 0 {
		if !accumulate {
			clear(cd[:m*hw])
		}
		return
	}
	p.checkReads()
	nb := (m + packMR - 1) / packMR
	fullB := 0
	if packTileInd24f != nil {
		fullB = m >> 2
	}
	k4 := k &^ 3
	bs := packedBlockStride(k)
	rows, cols := max(ncMicro/w, 1), min(w, ncMicro)
	for y0 := 0; y0 < h; y0 += rows {
		y1 := min(y0+rows, h)
		for x0 := 0; x0 < w; x0 += cols {
			x1 := min(x0+cols, w)
			xt := x0 // the block's tiles end at xt
			if fullB > 0 {
				xt += (x1 - x0) / 24 * 24
			}
			for kb := 0; kb < k && xt > x0; kb += kcMicro {
				ke := min(kb+kcMicro, k)
				qhi := min(ke, k4)
				nq, nt := (qhi-kb)/4, ke-qhi
				load := accumulate || kb > 0
				offs := p.offs[kb:ke]
				for ib := 0; ib < fullB; ib++ {
					// The block's coefficients for panel [kb, ke) start 4*kb
					// floats in: quads are 16 floats each and the k%4 tail
					// follows them at 4 floats per position, so the kernel
					// walks one pointer through both.
					ap := pd[ib*bs+4*kb : ib*bs+4*ke]
					c0 := ib * packMR * hw
					for oy := y0; oy < y1; oy++ {
						for ox := x0; ox < xt; ox += 24 {
							packTileInd24f(cd[c0+oy*w+ox:c0+3*hw+oy*w+ox+24], hw, ap, p.pl[oy*wp+ox:], offs, nq, nt, load)
						}
					}
				}
			}
			for oy := y0; oy < y1; oy++ {
				if xt < x1 {
					gemmAxpyPackedSpan(cd[oy*w:], pd, p.pl[oy*wp:], m, hw, p.offs, k, accumulate, 0, fullB, xt, x1)
				}
				if fullB < nb {
					gemmAxpyPackedSpan(cd[oy*w:], pd, p.pl[oy*wp:], m, hw, p.offs, k, accumulate, fullB, nb, x0, x1)
				}
			}
		}
	}
}

// im2colPlaneT writes one row of the transposed im2col matrix: for one
// channel plane ([h*w]) and kernel offset (ky, kx), seg[oy*ow+ox] =
// plane[iy*w+ix] with zero padding, over oh rows (a shifted copy,
// newConvPlanes, runs past the output's own rows). With stride 1 each
// output row is one contiguous copy with the padded edges cleared;
// otherwise a per-element gather.
func im2colPlaneT(seg, plane []float32, h, w int, s ConvSpec, oh, ow, ky, kx int) {
	if s.SW == 1 && s.SH == 1 && ow == w {
		// Same-width stride-1 plane (the 3x3/3x1/1x3 pad-same layers):
		// every valid output row is the matching input row shifted by a
		// constant, and consecutive rows are contiguous in both buffers,
		// so the whole valid region is ONE copy — instead of oh tiny
		// per-row memmoves whose call overhead dominates at small ow —
		// followed by scalar clears of the out-of-image columns.
		off := kx - s.PW // ix = ox + off
		lo, hi := 0, ow
		if -off > lo {
			lo = -off
		}
		if w-off < hi {
			hi = w - off
		}
		if hi <= lo {
			// The kernel column never lands inside the image (a plane
			// narrower than the padding): the whole segment is padding.
			clear(seg[:oh*ow])
			return
		}
		oylo := min(max(s.PH-ky, 0), oh) // first oy with iy = oy - (PH - ky) in range
		oyhi := h + s.PH - ky
		if oyhi > oh {
			oyhi = oh
		}
		if oyhi < oylo {
			oyhi = oylo
		}
		clear(seg[:oylo*ow])
		clear(seg[oyhi*ow : oh*ow])
		if oylo < oyhi {
			iy0 := oylo - s.PH + ky
			copy(seg[oylo*ow+lo:(oyhi-1)*ow+hi], plane[iy0*w+off+lo:])
			if lo > 0 || hi < ow {
				for oy := oylo; oy < oyhi; oy++ {
					row := seg[oy*ow : (oy+1)*ow]
					for j := 0; j < lo; j++ {
						row[j] = 0
					}
					for j := hi; j < ow; j++ {
						row[j] = 0
					}
				}
			}
		}
		return
	}
	for oy := 0; oy < oh; oy++ {
		iy := oy*s.SH - s.PH + ky
		drow := seg[oy*ow : (oy+1)*ow]
		if iy < 0 || iy >= h {
			clear(drow)
			continue
		}
		src := iy * w
		if s.SW == 1 {
			off := kx - s.PW // ix = ox + off
			lo, hi := 0, ow
			if -off > lo {
				lo = -off
			}
			if w-off < hi {
				hi = w - off
			}
			if hi <= lo {
				clear(drow)
				continue
			}
			clear(drow[:lo])
			copy(drow[lo:hi], plane[src+off+lo:src+off+hi])
			clear(drow[hi:])
			continue
		}
		for ox := 0; ox < ow; ox++ {
			ix := ox*s.SW - s.PW + kx
			if ix < 0 || ix >= w {
				drow[ox] = 0
			} else {
				drow[ox] = plane[src+ix]
			}
		}
	}
}

// conv1x1Direct reports whether a spec degenerates to a pure channel mixing
// (1x1 kernel, stride 1, no padding), in which case a CHW activation viewed
// as [C, H*W] already is its im2col matrix and is read in place.
func conv1x1Direct(s ConvSpec) bool {
	return s.KH == 1 && s.KW == 1 && s.SH == 1 && s.SW == 1 && s.PH == 0 && s.PW == 0
}

// biasPrefill writes bias value bd[ch] across channel row ch of rd; the GEMM
// then accumulates on top. Each row is one store followed by doubling
// copies, which run at memmove speed.
func biasPrefill(rd, bd []float32, oc, nhw int) {
	if nhw == 0 {
		return
	}
	for ch := 0; ch < oc; ch++ {
		row := rd[ch*nhw : (ch+1)*nhw]
		row[0] = bd[ch]
		for n := 1; n < nhw; n *= 2 {
			copy(row[n:], row[:n])
		}
	}
}

// Conv2DWS implements Backend: pack the weight into a lease, prefill bias
// into each channel row and accumulate the packed GEMM on top, with B laid
// out by newConvPlanes. Every layout reads the lowering's rows in the same
// k order, so they give the lowering's bits.
func (vecBackend) Conv2DWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor {
	oh, ow := s.OutSize(x.Dim(1), x.Dim(2))
	hw := oh * ow
	ckk := x.Dim(0) * s.KH * s.KW
	oc := w.Dim(0)
	res := ws.GetDirty(oc, oh, ow)
	panels := ws.GetDirty(packedSize(oc, ckk))
	packWeightsInto(panels.Data, w.Data, oc, ckk, ckk, 1)
	acc := b != nil
	if acc {
		biasPrefill(res.Data, b.Data, oc, hw)
	}
	p := newConvPlanes(ws, x, s)
	gemmPacked(res.Data, panels.Data, p, oc, ckk, acc)
	ws.Put(p.leased)
	ws.Put(panels)
	return res
}
