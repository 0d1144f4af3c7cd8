package tensor

// refBackend is the original cache-blocked scalar implementation (gemm.go),
// kept byte-for-byte as the parity oracle (Reference) the vec kernels are
// diffed against. Its kernels accumulate each output element in ascending-p order
// into a single float32 accumulator — the naive triple loop's order, which
// is what makes it usable as a golden reference.
type refBackend struct{}

func (refBackend) Name() string { return "reference" }

// Conv2DWS fuses the im2col lowering, the GEMM against the weight matrix
// and the [OH*OW,OC]→[OC,OH,OW] transposition into a single pass over
// output rows, so each row's column block stays cache-resident.
func (refBackend) Conv2DWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor {
	oc := w.Dim(0)
	c, h, wid := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := s.OutSize(h, wid)
	ckk := c * s.KH * s.KW
	hw := oh * ow
	colsT := ws.GetDirty(hw, ckk)
	res := ws.GetDirty(oc, oh, ow)
	cd, wd, rd := colsT.Data, w.Data, res.Data
	var bd []float32
	if b != nil {
		bd = b.Data
	}
	for oy := 0; oy < oh; oy++ {
		im2colRow(cd, x, s, oy, ow, ckk)
		for ox := 0; ox < ow; ox++ {
			p := oy*ow + ox
			crow := cd[p*ckk : (p+1)*ckk]
			for ch := 0; ch < oc; ch++ {
				v := sdot(crow, wd[ch*ckk:(ch+1)*ckk])
				if bd != nil {
					v += bd[ch]
				}
				rd[ch*hw+p] = v
			}
		}
	}
	ws.Put(colsT)
	return res
}

// Conv2DBackwardWS is the generic im2col backward, the oracle vec's is
// diffed against: the lowering as a [OH*OW, CKK] matrix, dW = gy^T x cols
// and dcols = gy x W through reference's own GEMM (gemmAxpy), and a col2im
// scatter.
func (refBackend) Conv2DBackwardWS(ws *Workspace, x, w, gy *Tensor, s ConvSpec, needInput bool) (dx, dw, db *Tensor) {
	oc := w.Dim(0)
	c, h, wid := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := s.OutSize(h, wid)
	hw := oh * ow
	ckk := c * s.KH * s.KW
	// gy as matrix [OH*OW, OC]
	gmat := ws.GetDirty(hw, oc)
	for ch := 0; ch < oc; ch++ {
		seg := gy.Data[ch*hw : (ch+1)*hw]
		for p, v := range seg {
			gmat.Data[p*oc+ch] = v
		}
	}
	cols := Im2col(x, s, ws.GetDirty(hw, ckk)) // [OH*OW, CKK]
	// dW = gyᵀ × cols → [OC, CKK], written directly into the 4-D gradient.
	dw = ws.GetDirty(oc, c, s.KH, s.KW)
	gemmAxpy(dw.Data, gmat.Data, cols.Data, oc, ckk, hw, 1, oc, false)
	// db = column sums of gy
	db = ws.GetDirty(oc)
	for ch := 0; ch < oc; ch++ {
		var sum float32
		seg := gy.Data[ch*hw : (ch+1)*hw]
		for _, v := range seg {
			sum += v
		}
		db.Data[ch] = sum
	}
	if needInput {
		// dcols = gy × Wmat → [OH*OW, CKK], then scatter back to CHW.
		dcols := ws.GetDirty(hw, ckk)
		gemmAxpy(dcols.Data, gmat.Data, w.Data, hw, ckk, oc, oc, 1, false)
		dx = ws.Get(c, h, wid)
		Col2imInto(dx, dcols, s)
		ws.Put(dcols)
	}
	ws.Put(cols)
	ws.Put(gmat)
	return dx, dw, db
}
