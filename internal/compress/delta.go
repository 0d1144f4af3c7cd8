package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// deltaMagic versions the Delta wire layout; bump the digit for breaking
// changes (decoders reject unknown magics instead of misparsing).
var deltaMagic = [4]byte{'D', 'L', 'T', '1'}

// Per-parameter encoding modes. The encoder picks whichever is smallest
// without giving up exactness where exactness is free:
//
//	modeSame   — bit-identical to the base: no payload at all.
//	modeSparse — few changed elements: exact (index, value) pairs applied
//	             over a clone of the base. Bit-exact under ANY inner codec.
//	modeDense  — many changed elements, lossy inner: arithmetic deltas
//	             (value − base) ride the inner codec in one batched blob.
//	modeExact  — many changed elements, bit-exact inner: absolute values
//	             ride the inner codec. Avoids the float (a−b)+b round-trip
//	             inexactness, so delta+raw reconstructs bit-identically.
const (
	modeSame   = 0
	modeSparse = 1
	modeDense  = 2
	modeExact  = 3
)

// Delta is the base-relative codec wrapper: it encodes parameters against a
// shared base the receiver already holds (the pretrained student), so only
// what training changed crosses the wire. Frozen tensors collapse to a
// header byte; trainable ones ride the inner codec as deltas. A nil Base is
// the all-zeros base — every value is then its own delta, which keeps the
// codec total (and is what the Adam-moment blobs use).
type Delta struct {
	// Inner carries the dense payload. Must not itself be a Delta.
	Inner Codec
	// Base holds the receiver-side reference values; missing names and
	// shape mismatches are treated as zero tensors on both sides.
	Base *nn.ParamSet
}

// WithBase binds base to c when c is a Delta (as returned by ByName, which
// cannot know the base); any other codec passes through unchanged.
func WithBase(c Codec, base *nn.ParamSet) Codec {
	if d, ok := c.(*Delta); ok {
		return &Delta{Inner: d.Inner, Base: base}
	}
	return c
}

// Inner returns the codec that carries c's dense payload: a Delta's inner
// codec, any other codec itself.
func Inner(c Codec) Codec {
	if d, ok := c.(*Delta); ok {
		return d.Inner
	}
	return c
}

// Name implements Codec; the form round-trips through ByName.
func (d *Delta) Name() string { return "delta+" + d.Inner.Name() }

func (d *Delta) validate() error {
	if d.Inner == nil {
		return fmt.Errorf("compress: delta codec needs an inner codec")
	}
	if _, nested := d.Inner.(*Delta); nested {
		return fmt.Errorf("compress: delta codec cannot nest")
	}
	return nil
}

// baseData returns the base values for name, or nil for a zero base
// (missing name, shape mismatch, or no Base at all). Encode and Decode
// apply the same rule, so both sides agree on every parameter's reference.
func (d *Delta) baseData(name string, n int) []float32 {
	if d.Base == nil {
		return nil
	}
	ref := d.Base.Get(name)
	if ref == nil || ref.Value.Len() != n {
		return nil
	}
	return ref.Value.Data
}

// innerExact reports whether the inner codec reproduces floats bit-exactly,
// which decides between absolute values (modeExact) and arithmetic deltas
// (modeDense) for the dense path.
func (d *Delta) innerExact() bool {
	_, raw := d.Inner.(Raw)
	return raw
}

// Encode implements Codec.
func (d *Delta) Encode(w io.Writer, params []*nn.Parameter) error {
	if err := d.validate(); err != nil {
		return err
	}
	innerName := d.Inner.Name()
	if len(innerName) > 255 {
		return fmt.Errorf("compress: inner codec name %q too long", innerName)
	}
	if _, err := w.Write(deltaMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(len(innerName))}); err != nil {
		return err
	}
	if _, err := io.WriteString(w, innerName); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}

	exact := d.innerExact()
	var dense []*nn.Parameter
	for _, p := range params {
		if err := writeHeader(w, p); err != nil {
			return err
		}
		base := d.baseData(p.Name, p.Value.Len())
		// Count changed elements bitwise: NaNs and -0 vs +0 must count as
		// equal-to-base only when the bits agree, or reconstruction drifts.
		changed := 0
		for i, v := range p.Value.Data {
			var b float32
			if base != nil {
				b = base[i]
			}
			if math.Float32bits(v) != math.Float32bits(b) {
				changed++
			}
		}
		mode := pickMode(changed, p.Value.Len(), exact)
		if _, err := w.Write([]byte{byte(mode)}); err != nil {
			return err
		}
		switch mode {
		case modeSame:
		case modeSparse:
			if err := binary.Write(w, binary.LittleEndian, uint32(changed)); err != nil {
				return err
			}
			for i, v := range p.Value.Data {
				var b float32
				if base != nil {
					b = base[i]
				}
				if math.Float32bits(v) == math.Float32bits(b) {
					continue
				}
				if err := binary.Write(w, binary.LittleEndian, uint32(i)); err != nil {
					return err
				}
				if err := binary.Write(w, binary.LittleEndian, math.Float32bits(v)); err != nil {
					return err
				}
			}
		case modeDense:
			dp := &nn.Parameter{Name: p.Name, Value: tensor.New(p.Value.Shape()...)}
			copy(dp.Value.Data, p.Value.Data)
			if base != nil {
				for i := range dp.Value.Data {
					dp.Value.Data[i] -= base[i]
				}
			}
			dense = append(dense, dp)
		case modeExact:
			dense = append(dense, p)
		}
	}

	// All dense parameters ride ONE inner payload: per-tensor codec
	// overhead (headers, scales) amortises, and the inner codec sees the
	// same batch shape the diff path gives it.
	var blob bytes.Buffer
	if len(dense) > 0 {
		if err := d.Inner.Encode(&blob, dense); err != nil {
			return fmt.Errorf("compress: delta inner encode: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(blob.Len())); err != nil {
		return err
	}
	_, err := w.Write(blob.Bytes())
	return err
}

// pickMode chooses the smallest representation for a tensor with `changed`
// of `n` elements differing from base. Sparse pairs cost 8 bytes each;
// the dense path costs ~4n under raw and ~n under int8-class inners.
func pickMode(changed, n int, exact bool) int {
	if changed == 0 {
		return modeSame
	}
	if exact {
		if 8*changed < 4*n {
			return modeSparse
		}
		return modeExact
	}
	if 8*changed <= n {
		return modeSparse
	}
	return modeDense
}

// Decode implements Codec. The inner codec is resolved from the stream's
// self-description, so a receiver configured with any Delta instance can
// decode any sender's choice of inner — only the Base must match.
func (d *Delta) Decode(r io.Reader) ([]*nn.Parameter, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("compress: delta magic: %w", err)
	}
	if magic != deltaMagic {
		return nil, fmt.Errorf("compress: bad delta magic %q", magic[:])
	}
	var nameLen [1]byte
	if _, err := io.ReadFull(r, nameLen[:]); err != nil {
		return nil, fmt.Errorf("compress: delta inner name length: %w", err)
	}
	nameBuf := make([]byte, nameLen[0])
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, fmt.Errorf("compress: delta inner name: %w", err)
	}
	inner, ok := ByName(string(nameBuf))
	if !ok {
		return nil, fmt.Errorf("compress: delta stream names unknown inner codec %q", nameBuf)
	}
	if _, nested := inner.(*Delta); nested {
		return nil, fmt.Errorf("compress: delta stream nests delta")
	}

	count, err := readCount(r)
	if err != nil {
		return nil, err
	}
	type decl struct {
		name  string
		shape []int
		mode  int
		out   *tensor.Tensor // filled for modeSame/modeSparse immediately
	}
	decls := make([]decl, 0, count)
	denseCount := 0
	for i := 0; i < count; i++ {
		name, shape, err := readHeader(r)
		if err != nil {
			return nil, err
		}
		var mb [1]byte
		if _, err := io.ReadFull(r, mb[:]); err != nil {
			return nil, fmt.Errorf("compress: delta mode: %w", err)
		}
		dc := decl{name: name, shape: shape, mode: int(mb[0])}
		switch dc.mode {
		case modeSame, modeSparse:
			t := tensor.New(shape...)
			if base := d.baseData(name, t.Len()); base != nil {
				copy(t.Data, base)
			}
			if dc.mode == modeSparse {
				var n uint32
				if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
					return nil, fmt.Errorf("compress: delta sparse count: %w", err)
				}
				if int(n) > t.Len() {
					return nil, fmt.Errorf("compress: delta sparse count %d exceeds tensor size %d", n, t.Len())
				}
				if err := checkClaim(r, 8*int64(n)); err != nil {
					return nil, err
				}
				for j := uint32(0); j < n; j++ {
					var idx, bits uint32
					if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
						return nil, fmt.Errorf("compress: delta sparse index: %w", err)
					}
					if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
						return nil, fmt.Errorf("compress: delta sparse value: %w", err)
					}
					if int(idx) >= t.Len() {
						return nil, fmt.Errorf("compress: delta sparse index %d out of range %d", idx, t.Len())
					}
					t.Data[idx] = math.Float32frombits(bits)
				}
			}
			dc.out = t
		case modeDense, modeExact:
			denseCount++
		default:
			return nil, fmt.Errorf("compress: unknown delta mode %d", dc.mode)
		}
		decls = append(decls, dc)
	}

	var blobLen uint32
	if err := binary.Read(r, binary.LittleEndian, &blobLen); err != nil {
		return nil, fmt.Errorf("compress: delta dense length: %w", err)
	}
	if blobLen > 1<<28 {
		return nil, fmt.Errorf("compress: implausible delta dense length %d", blobLen)
	}
	if err := checkClaim(r, int64(blobLen)); err != nil {
		return nil, err
	}
	var dense []*nn.Parameter
	if blobLen > 0 {
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(r, blob); err != nil {
			return nil, fmt.Errorf("compress: delta dense blob: %w", err)
		}
		dense, err = inner.Decode(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("compress: delta inner decode: %w", err)
		}
	}
	if len(dense) != denseCount {
		return nil, fmt.Errorf("compress: delta dense blob holds %d tensors, header declares %d", len(dense), denseCount)
	}

	params := make([]*nn.Parameter, 0, count)
	di := 0
	for _, dc := range decls {
		switch dc.mode {
		case modeSame, modeSparse:
			params = append(params, &nn.Parameter{Name: dc.name, Value: dc.out})
		case modeDense, modeExact:
			got := dense[di]
			di++
			if got.Name != dc.name || !sameShape(got.Value.Shape(), dc.shape) {
				return nil, fmt.Errorf("compress: delta dense tensor %q does not match declaration %q", got.Name, dc.name)
			}
			if dc.mode == modeDense {
				if base := d.baseData(dc.name, got.Value.Len()); base != nil {
					for i := range got.Value.Data {
						got.Value.Data[i] += base[i]
					}
				}
			}
			params = append(params, got)
		}
	}
	return params, nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
