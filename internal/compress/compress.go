// Package compress implements the model-level update compression the paper
// defers to future work (§5.2/§8: "model-level optimizations such as ...
// performing quantization or pruning on weights can be applied to the
// student"): per-tensor symmetric int8 quantization and magnitude pruning
// with sparse encoding, applied to the student diffs that travel server →
// client. Both are lossy; the ablation benches measure the bytes saved
// against the accuracy cost. Int8's symbols, Delta's exact bit-pattern
// distances and the key frame's image planes all ride one entropy-coded
// integer stream (bits.go).
package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Codec compresses and decompresses a set of named parameters.
type Codec interface {
	// Encode serialises params.
	Encode(w io.Writer, params []*nn.Parameter) error
	// Decode parses a stream produced by Encode.
	Decode(r io.Reader) ([]*nn.Parameter, error)
	// Name identifies the codec on the wire and in experiment output.
	Name() string
}

// ---------------------------------------------------------------------------
// Raw codec: the float32 baseline (what the paper ships).
// ---------------------------------------------------------------------------

// Raw is the identity codec over nn.WriteNamed/ReadNamed.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Encode implements Codec.
func (Raw) Encode(w io.Writer, params []*nn.Parameter) error {
	return nn.WriteNamed(w, params)
}

// Decode implements Codec.
func (Raw) Decode(r io.Reader) ([]*nn.Parameter, error) {
	return nn.ReadNamed(r)
}

// ---------------------------------------------------------------------------
// Int8 codec: per-tensor symmetric quantization on the integer stream.
// ---------------------------------------------------------------------------

// Int8 quantizes each tensor to signed 8-bit integers with one float32
// scale per tensor: v ≈ scale × q, q ∈ [-127, 127]. The symbols ride the
// integer stream (bits.go) as zigzag(q), so a tensor whose q cluster near
// zero — a diff's — costs a few bits a weight rather than eight. Wire
// layout:
//
//	count u32 · per tensor: header · scale f32 · stream of zigzag(q)
type Int8 struct{}

// Name implements Codec.
func (Int8) Name() string { return "int8" }

// Encode implements Codec. A NaN or ±Inf has no int8 symbol (and an
// infinite scale would zero the rest of its tensor), so non-finite input is
// an error; Delta routes such tensors down its exact path instead.
func (Int8) Encode(w io.Writer, params []*nn.Parameter) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	var sym []uint32 // reused across tensors
	var out []byte
	for _, p := range params {
		maxAbs := float32(0)
		for _, v := range p.Value.Data {
			if a := abs32(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		sym = slices.Grow(sym[:0], p.Value.Len())[:p.Value.Len()]
		var hist [33]int
		for i, v := range p.Value.Data {
			q := math.Round(float64(v / scale))
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			if q != q { // a NaN, or an Inf over the infinite scale it made
				return fmt.Errorf("compress: int8 cannot quantize %s[%d] = %v", p.Name, i, v)
			}
			sym[i] = zigzag(int32(q))
			hist[bits.Len32(sym[i])]++
		}
		if err := nn.WriteHeader(w, p); err != nil {
			return err
		}
		out = binary.LittleEndian.AppendUint32(out[:0], math.Float32bits(scale))
		out = newLengthCode(&hist).appendStream(out, sym)
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// Decode implements Codec.
func (Int8) Decode(r io.Reader) ([]*nn.Parameter, error) {
	count, err := readCount(r)
	if err != nil {
		return nil, err
	}
	params := make([]*nn.Parameter, 0, count)
	for i := 0; i < count; i++ {
		name, shape, err := nn.ReadHeader(r)
		if err != nil {
			return nil, err
		}
		var scale float32
		if err := binary.Read(r, binary.LittleEndian, &scale); err != nil {
			return nil, fmt.Errorf("compress: int8 scale: %w", err)
		}
		t, err := readStream(r, shape, 8)
		if err != nil {
			return nil, fmt.Errorf("compress: int8 %s: %w", name, err)
		}
		data := t.Data // a local slice: the stores below cannot move it
		for j, z := range bitsOf(data) {
			data[j] = float32(unzigzag(z)) * scale
		}
		params = append(params, &nn.Parameter{Name: name, Value: t})
	}
	return params, nil
}

// ByName resolves a codec from a scenario-friendly name: "raw" (or empty),
// "int8", "pruneNN" — magnitude pruning keeping NN percent of entries per
// tensor, e.g. "prune25" — or "delta+<inner>", the base-relative wrapper
// around any of the former (the returned Delta has a nil Base).
func ByName(name string) (Codec, bool) {
	switch {
	case name == "" || name == "raw":
		return Raw{}, true
	case name == "int8":
		return Int8{}, true
	case len(name) > len("delta+") && name[:len("delta+")] == "delta+":
		inner, ok := ByName(name[len("delta+"):])
		if !ok {
			return nil, false
		}
		if _, nested := inner.(*Delta); nested {
			return nil, false
		}
		return &Delta{Inner: inner}, true
	case len(name) > len("prune") && name[:len("prune")] == "prune":
		// strconv.Atoi consumes the whole suffix, so trailing garbage
		// ("prune25x") fails instead of silently resolving a codec.
		pct, err := strconv.Atoi(name[len("prune"):])
		if err != nil || pct <= 0 || pct > 100 {
			return nil, false
		}
		return Pruned{KeepFraction: float64(pct) / 100}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Pruned codec: magnitude pruning + sparse (index, value) encoding.
// ---------------------------------------------------------------------------

// Pruned keeps only the largest-magnitude fraction of each tensor's entries
// and encodes them sparsely as (uint32 index, float32 value) pairs. The
// receiver fills the rest with zeros, so it only makes sense for *diffs*
// applied to weights the receiver already holds: Delta is what turns values
// into deltas against those, with Pruned as its inner codec.
type Pruned struct {
	// KeepFraction is the fraction of entries retained per tensor, (0, 1].
	KeepFraction float64
}

// Name implements Codec. The form round-trips through ByName ("prune25"),
// so scenario specs and wire self-identification resolve the same codec
// they were produced with.
func (p Pruned) Name() string {
	return fmt.Sprintf("prune%d", int(math.Round(p.KeepFraction*100)))
}

// Encode implements Codec.
func (p Pruned) Encode(w io.Writer, params []*nn.Parameter) error {
	if p.KeepFraction <= 0 || p.KeepFraction > 1 {
		return fmt.Errorf("compress: keep fraction %v outside (0,1]", p.KeepFraction)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, prm := range params {
		if err := nn.WriteHeader(w, prm); err != nil {
			return err
		}
		vals := prm.Value.Data
		keep := int(math.Ceil(p.KeepFraction * float64(len(vals))))
		idx := topKByMagnitude(vals, keep)
		if err := binary.Write(w, binary.LittleEndian, uint32(len(idx))); err != nil {
			return err
		}
		for _, i := range idx {
			if err := binary.Write(w, binary.LittleEndian, uint32(i)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, vals[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decode implements Codec: the kept values at their indices, zero elsewhere.
func (p Pruned) Decode(r io.Reader) ([]*nn.Parameter, error) {
	count, err := readCount(r)
	if err != nil {
		return nil, err
	}
	params := make([]*nn.Parameter, 0, count)
	for i := 0; i < count; i++ {
		name, shape, err := nn.ReadHeader(r)
		if err != nil {
			return nil, err
		}
		t := tensor.New(shape...)
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("compress: prune count: %w", err)
		}
		if int(n) > t.Len() {
			return nil, fmt.Errorf("compress: prune count %d exceeds tensor size %d", n, t.Len())
		}
		// Each pair is 8 bytes; a count the stream cannot back is hostile.
		if err := checkClaim(r, 8*int64(n)); err != nil {
			return nil, err
		}
		for j := uint32(0); j < n; j++ {
			var idx uint32
			var val float32
			if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
				return nil, fmt.Errorf("compress: prune index: %w", err)
			}
			if err := binary.Read(r, binary.LittleEndian, &val); err != nil {
				return nil, fmt.Errorf("compress: prune value: %w", err)
			}
			if int(idx) >= t.Len() {
				return nil, fmt.Errorf("compress: prune index %d out of range %d", idx, t.Len())
			}
			t.Data[idx] += val
		}
		params = append(params, &nn.Parameter{Name: name, Value: t})
	}
	return params, nil
}

// topKByMagnitude returns the indices of the k largest-|v| entries,
// ascending by index for cache-friendly application.
func topKByMagnitude(vals []float32, k int) []int {
	if k >= len(vals) {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return abs32(vals[idx[a]]) > abs32(vals[idx[b]])
	})
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}

// checkClaim rejects a header claiming more payload bytes than the reader
// still holds, when the reader can say (bytes.Reader, bufWriter, ...).
// Streaming readers without Len pass through — the subsequent reads fail
// with EOF before any oversized write happens.
func checkClaim(r io.Reader, claimed int64) error {
	if lr, ok := r.(interface{ Len() int }); ok && claimed > int64(lr.Len()) {
		return fmt.Errorf("compress: header claims %d bytes, %d remain", claimed, lr.Len())
	}
	return nil
}

func readCount(r io.Reader) (int, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return 0, fmt.Errorf("compress: count: %w", err)
	}
	if count > 1<<20 {
		return 0, fmt.Errorf("compress: implausible count %d", count)
	}
	return int(count), nil
}

// abs32 clears v's sign bit: no branch for a mispredicted sign to cost.
func abs32(v float32) float32 { return math.Float32frombits(math.Float32bits(v) &^ (1 << 31)) }

// EncodedBytes returns the byte length codec produces for params, for
// traffic accounting and the compression ablation.
func EncodedBytes(c Codec, params []*nn.Parameter) (int, error) {
	var cw countingWriter
	if err := c.Encode(&cw, params); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// MaxAbsError returns the worst-case elementwise reconstruction error of
// round-tripping params through codec — the quantization-quality metric the
// compression tests assert on.
func MaxAbsError(c Codec, params []*nn.Parameter) (float64, error) {
	var cw bufWriter
	if err := c.Encode(&cw, params); err != nil {
		return 0, err
	}
	got, err := c.Decode(&cw)
	if err != nil {
		return 0, err
	}
	if len(got) != len(params) {
		return 0, fmt.Errorf("compress: round trip lost parameters: %d vs %d", len(got), len(params))
	}
	worst := 0.0
	for i, p := range params {
		for j := range p.Value.Data {
			d := math.Abs(float64(p.Value.Data[j] - got[i].Value.Data[j]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// bufWriter is an in-memory io.Writer/io.Reader pair for round trips.
type bufWriter struct {
	b   []byte
	off int
}

func (w *bufWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Len reports the unread byte count, so checkClaim guards round trips too.
func (w *bufWriter) Len() int { return len(w.b) - w.off }

func (w *bufWriter) Read(p []byte) (int, error) {
	if w.off >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.off:])
	w.off += n
	return n, nil
}
