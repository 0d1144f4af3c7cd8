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
// changes (decoders reject unknown magics instead of misparsing). DLT2
// replaced DLT1's absolute-values-under-raw mode with modeBits; DLT3 moved
// modeBits from fixed-width tagged distances onto the integer stream
// (bits.go).
var deltaMagic = [4]byte{'D', 'L', 'T', '3'}

// Per-parameter encoding modes. The encoder picks whichever is smallest
// without giving up exactness where exactness is free:
//
//	modeSame   — bit-identical to the base: no payload at all.
//	modeSparse — few changed elements: exact (index, value) pairs applied
//	             over a clone of the base. Bit-exact under ANY inner codec.
//	modeDense  — many changed elements, lossy inner: arithmetic deltas
//	             (value − base) ride the inner codec in one batched blob.
//	             Under an exact inner only for a tensor with no base, where
//	             nothing is subtracted and the blob is a plain copy.
//	modeBits   — many changed elements, bit-exact inner, a BatchNorm
//	             running statistic or a non-finite value or delta:
//	             bit-pattern distances from the base on one integer stream
//	             (bits.go). No float (a−b)+b round trip, so delta+raw
//	             reconstructs bit-identically.
//
// A running statistic (nn.IsBNStat) never takes modeDense, whatever the
// inner codec: a lossy codec is a contract about weights. Per-tensor int8
// flushes a small running variance to zero or past it, pruning zeroes it
// outright, and 1/√(var+ε) turns either into a huge gain — or a NaN — on
// that channel. Nor does a tensor holding a NaN or ±Inf, or whose delta
// from the base is one: it has no int8 symbol, and rides exactly instead,
// so sender and receiver still agree on every bit.
const (
	modeSame   = 0
	modeSparse = 1
	modeDense  = 2
	modeBits   = 3
)

// Delta is the base-relative codec wrapper: it encodes parameters against a
// base the receiver already holds — the pretrained student for checkpoints,
// the sender's record of the receiver's weights for student diffs — so only
// what training changed crosses the wire. Untouched tensors collapse to a
// header byte; the rest ride bit-pattern distances (exact inner, and every
// running statistic) or the inner codec as arithmetic deltas (lossy inner).
// A nil Base is the all-zeros base — every value is then its own delta,
// which keeps the codec total (and is what absolute checkpoints use; under
// raw a tensor then rides whichever of bit distances and a plain copy is
// smaller, so an absolute stream costs a header byte per tensor over
// nn.WriteNamed).
type Delta struct {
	// Inner carries the dense payload. Must not itself be a Delta.
	Inner Codec
	// Base holds the receiver-side reference values; missing names and
	// shape mismatches are treated as zero tensors on both sides.
	Base *nn.ParamSet
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

	// Raw reproduces every float32 bit pattern whatever the values, so its
	// dense path is bit-pattern distances (modeBits), not arithmetic deltas.
	_, innerExact := d.Inner.(Raw)
	var dense []*nn.Parameter
	var dist []uint32 // reused across tensors
	var out []byte    // one tensor's mode byte and payload, reused
	for _, p := range params {
		if err := nn.WriteHeader(w, p); err != nil {
			return err
		}
		n := p.Value.Len()
		base := d.baseData(p.Name, n)
		if cap(dist) < n {
			dist = make([]uint32, n)
		}
		dist = dist[:n]
		// Changed elements are counted bitwise: NaNs and -0 vs +0 equal the
		// base only when the bits agree, or reconstruction drifts.
		var hist [33]int
		changed := bitDistance(dist, &hist, p.Value.Data, base)
		mode := modeDense
		var code *lengthCode
		switch {
		case changed == 0:
			mode = modeSame
		case innerExact || nn.IsBNStat(p.Name) || !finiteDeltas(p.Value.Data, base):
			code = newLengthCode(&hist)
			mode = modeBits
			if 4+8*changed < code.size() {
				mode = modeSparse
			} else if innerExact && base == nil && nn.EncodedSize([]*nn.Parameter{p}) < code.size() {
				mode = modeDense
			}
		case 8*changed <= n:
			// The cut dates from int8's byte a weight. It stays where it
			// is: it decides which tensors arrive exact, and so the bits
			// the receiver holds.
			mode = modeSparse
		}
		out = append(out[:0], byte(mode))
		switch mode {
		case modeSparse:
			out = binary.LittleEndian.AppendUint32(out, uint32(changed))
			for i, z := range dist {
				if z != 0 {
					out = binary.LittleEndian.AppendUint32(out, uint32(i))
					out = binary.LittleEndian.AppendUint32(out, math.Float32bits(p.Value.Data[i]))
				}
			}
		case modeBits:
			out = code.appendStream(out, dist)
		case modeDense:
			dp := &nn.Parameter{Name: p.Name, Value: tensor.New(p.Value.Shape()...)}
			copy(dp.Value.Data, p.Value.Data)
			if base != nil {
				for i := range dp.Value.Data {
					dp.Value.Data[i] -= base[i]
				}
			}
			dense = append(dense, dp)
		}
		if _, err := w.Write(out); err != nil {
			return err
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

// finiteDeltas reports whether every value of cur, and its delta from base
// (nil: all zeros), is finite — what a lossy inner's arithmetic needs.
func finiteDeltas(cur, base []float32) bool {
	for i, v := range cur {
		d := v
		if base != nil {
			d -= base[i]
		}
		if v-v != 0 || d-d != 0 { // NaN or ±Inf
			return false
		}
	}
	return true
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
	// A tensor is at least a name length, a rank and a mode byte.
	if err := checkClaim(r, 4*int64(count)); err != nil {
		return nil, err
	}
	type decl struct {
		name  string
		shape []int
		mode  int
		out   *tensor.Tensor // filled immediately for every mode but modeDense
	}
	decls := make([]decl, 0, count)
	denseCount := 0
	for i := 0; i < count; i++ {
		name, shape, err := nn.ReadHeader(r)
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
				pairs := make([]byte, 8*n) // n ≤ t.Len(), which is allocated already
				if _, err := io.ReadFull(r, pairs); err != nil {
					return nil, fmt.Errorf("compress: delta sparse pairs: %w", err)
				}
				for ; len(pairs) > 0; pairs = pairs[8:] {
					idx := binary.LittleEndian.Uint32(pairs)
					if int(idx) >= t.Len() {
						return nil, fmt.Errorf("compress: delta sparse index %d out of range %d", idx, t.Len())
					}
					t.Data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(pairs[4:]))
				}
			}
			dc.out = t
		case modeBits:
			// The stream bounds the element count before anything is
			// allocated: no allocation on the shape's word alone.
			t, err := readStream(r, shape, 32)
			if err != nil {
				return nil, fmt.Errorf("compress: delta bit-pattern %s: %w", name, err)
			}
			fromDistance(t.Data, d.baseData(name, t.Len()))
			dc.out = t
		case modeDense:
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
		if dc.mode != modeDense {
			params = append(params, &nn.Parameter{Name: dc.name, Value: dc.out})
			continue
		}
		got := dense[di]
		di++
		if got.Name != dc.name || !tensor.ShapeEq(got.Value.Shape(), dc.shape) {
			return nil, fmt.Errorf("compress: delta dense tensor %q does not match declaration %q", got.Name, dc.name)
		}
		if base := d.baseData(dc.name, got.Value.Len()); base != nil {
			for i := range got.Value.Data {
				got.Value.Data[i] += base[i]
			}
		}
		params = append(params, got)
	}
	return params, nil
}
