// Package nn builds neural networks on top of internal/tensor and
// internal/autodiff: the paper's student architecture (Fig. 3), a generic
// small CNN used as an in-process teacher for tests, parameter registries
// with freeze support, and binary (de)serialization of weights and weight
// diffs for the transport layer.
package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/autodiff"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Parameter is a named, learnable tensor with a frozen flag. Frozen
// parameters are registered on tapes with requiresGrad=false, which prunes
// the backward graph (partial distillation, §4.2). BatchNorm running
// statistics are parameters too — they are serialized and shipped by name —
// but stay Frozen for good: they are never handed to an optimizer.
type Parameter struct {
	Name   string
	Value  *tensor.Tensor
	Frozen bool
	// Shared marks a Value that another student owns and this one only
	// reads (Student.SharePrefix).
	Shared bool
}

// ParamSet is an ordered collection of parameters keyed by name.
type ParamSet struct {
	params []*Parameter
	byName map[string]*Parameter
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: map[string]*Parameter{}}
}

// Add registers a new parameter; duplicate names panic.
func (ps *ParamSet) Add(name string, value *tensor.Tensor) *Parameter {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p := &Parameter{Name: name, Value: value}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// Get returns the parameter with the given name, or nil.
func (ps *ParamSet) Get(name string) *Parameter { return ps.byName[name] }

// All returns parameters in registration order. Callers must not mutate the
// slice.
func (ps *ParamSet) All() []*Parameter { return ps.params }

// NumParams returns the total element count across all parameters.
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.params {
		n += p.Value.Len()
	}
	return n
}

// NumTrainable returns the element count of non-frozen parameters.
func (ps *ParamSet) NumTrainable() int {
	n := 0
	for _, p := range ps.params {
		if !p.Frozen {
			n += p.Value.Len()
		}
	}
	return n
}

// TrainableFraction returns NumTrainable/NumParams; the paper freezes
// through SB4 leaving 21.4% trainable (§5.2).
func (ps *ParamSet) TrainableFraction() float64 {
	total := ps.NumParams()
	if total == 0 {
		return 0
	}
	return float64(ps.NumTrainable()) / float64(total)
}

// IsBNStat reports whether name is a BatchNorm running statistic
// (NewBatchNorm2D's ".rmean"/".rvar") — the one place that naming rule
// lives.
func IsBNStat(name string) bool {
	_, ok := bnStatLayer(name)
	return ok
}

// SplitBNStats partitions params, in order, into running statistics and
// everything else. A lossy codec is a contract about weights; statistics
// take compress.Delta's exact modes under any codec.
func SplitBNStats(params []*Parameter) (weights, stats []*Parameter) {
	for _, p := range params {
		if IsBNStat(p.Name) {
			stats = append(stats, p)
		} else {
			weights = append(weights, p)
		}
	}
	return weights, stats
}

// bnStatLayer splits a running statistic's name into its layer's name and
// true; any other name returns false.
func bnStatLayer(name string) (string, bool) {
	for _, suf := range [...]string{".rmean", ".rvar"} {
		if layer, ok := strings.CutSuffix(name, suf); ok {
			return layer, true
		}
	}
	return "", false
}

// FreezePrefix freezes every parameter whose name matches any of the given
// prefixes and unfreezes the rest, except running statistics, which stay
// frozen whatever the cut. It returns the number matched. A Shared tensor
// the new cut trains becomes a private copy first: copy on unfreeze.
func (ps *ParamSet) FreezePrefix(prefixes ...string) int {
	n := 0
	for _, p := range ps.params {
		p.Frozen = IsBNStat(p.Name)
		for _, pre := range prefixes {
			if strings.HasPrefix(p.Name, pre) {
				p.Frozen = true
				n++
				break
			}
		}
	}
	for _, p := range TrainableSubset(ps) {
		if p.Shared {
			p.Value, p.Shared = p.Value.Clone(), false
		}
	}
	return n
}

// UnfreezeAll makes every parameter trainable (full distillation mode):
// FreezePrefix with an empty cut, so running statistics stay frozen.
func (ps *ParamSet) UnfreezeAll() { ps.FreezePrefix() }

// Clone deep-copies the parameter set (values and frozen flags).
func (ps *ParamSet) Clone() *ParamSet { return CloneNamed(ps.params) }

// CloneNamed deep-copies params (values and frozen flags) into a fresh set:
// with TrainableSubset, a snapshot of exactly what a diff carries.
func CloneNamed(params []*Parameter) *ParamSet {
	out := NewParamSet()
	for _, p := range params {
		out.Add(p.Name, p.Value.Clone()).Frozen = p.Frozen
	}
	return out
}

// ApplyValues copies values from src into ps for every name present in src.
// Names absent from src are left untouched, so a trainable-only snapshot can
// be restored without touching frozen weights.
func (ps *ParamSet) ApplyValues(src *ParamSet) {
	for _, sp := range src.All() {
		if p := ps.Get(sp.Name); p != nil {
			p.Value.CopyFrom(sp.Value)
		}
	}
}

// AppendOptimParams appends to dst the trainable parameters paired with
// gradients pulled from their tape variables, suitable for
// optim.Optimizer.Step; vars maps name → tape variable of the current
// forward pass. dst is typically a reused buffer sliced to zero length, so
// steady-state training steps build the parameter list without allocating.
func (ps *ParamSet) AppendOptimParams(dst []optim.Param, vars map[string]*autodiff.Variable) []optim.Param {
	for _, p := range ps.params {
		if p.Frozen {
			continue
		}
		v := vars[p.Name]
		if v == nil {
			continue
		}
		dst = append(dst, optim.Param{Name: p.Name, Value: p.Value, Grad: v.Grad})
	}
	return dst
}

// InitKaiming fills t with Kaiming-He normal initialisation for a conv
// weight of shape [OC, C, KH, KW] using the provided RNG.
func InitKaiming(t *tensor.Tensor, rng *rand.Rand) {
	fanIn := 1
	if t.Rank() == 4 {
		fanIn = t.Dim(1) * t.Dim(2) * t.Dim(3)
	} else if t.Rank() == 2 {
		fanIn = t.Dim(1)
	}
	std := math.Sqrt(2 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// ---------------------------------------------------------------------------
// Binary serialization. Format (all little-endian):
//   uint32 count
//   repeated: uint16 nameLen, name bytes, uint8 rank, int32 dims…, float32 data…
// The same framing serves full checkpoints and partial diffs (a diff is just
// a checkpoint restricted to trainable names).
// ---------------------------------------------------------------------------

// WriteHeader writes one parameter's header — name, rank, dimensions — the
// prefix every tensor on the wire carries, whatever encodes its values.
func WriteHeader(w io.Writer, p *Parameter) error {
	if len(p.Name) > 65535 {
		return fmt.Errorf("nn: parameter name too long: %d bytes", len(p.Name))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(p.Name))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, p.Name); err != nil {
		return err
	}
	shape := p.Value.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint8(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, int32(d)); err != nil {
			return err
		}
	}
	return nil
}

// ReadHeader parses a header WriteHeader produced. The shape it returns is
// bounded — rank ≤ 8, each dimension ≤ 2^24, ≤ 2^28 elements in all — so a
// hostile header cannot overflow the element count or demand a giant
// allocation before any payload byte is read.
func ReadHeader(r io.Reader) (name string, shape []int, err error) {
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return "", nil, fmt.Errorf("nn: reading name length: %w", err)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return "", nil, fmt.Errorf("nn: reading name: %w", err)
	}
	var rank uint8
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return "", nil, fmt.Errorf("nn: reading rank: %w", err)
	}
	if rank > 8 {
		return "", nil, fmt.Errorf("nn: implausible rank %d", rank)
	}
	shape = make([]int, rank)
	// int64 with a check after every multiply: the running product stays
	// ≤ 2^52 (2^28 × 2^24), so it cannot overflow even on 32-bit builds.
	elems := int64(1)
	for d := range shape {
		var dim int32
		if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
			return "", nil, fmt.Errorf("nn: reading dim: %w", err)
		}
		if dim < 0 || dim > 1<<24 {
			return "", nil, fmt.Errorf("nn: implausible dimension %d", dim)
		}
		shape[d] = int(dim)
		elems *= int64(dim)
		if elems > 1<<28 {
			return "", nil, fmt.Errorf("nn: implausible tensor size %d elems", elems)
		}
	}
	return string(nameBuf), shape, nil
}

// WriteNamed serializes the given parameters (in order) to w.
func WriteNamed(w io.Writer, params []*Parameter) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := WriteHeader(w, p); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, p.Value.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadNamed parses a stream produced by WriteNamed into fresh parameters.
func ReadNamed(r io.Reader) ([]*Parameter, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("nn: reading param count: %w", err)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("nn: implausible parameter count %d", count)
	}
	params := make([]*Parameter, 0, count)
	for i := uint32(0); i < count; i++ {
		name, shape, err := ReadHeader(r)
		if err != nil {
			return nil, err
		}
		// A corrupt header must not force a giant allocation: when the
		// reader knows its remaining length (bytes.Reader in the transport
		// decoders), verify the claimed payload fits before allocating.
		size := 4 * int64(tensor.NumElems(shape))
		if lr, ok := r.(interface{ Len() int }); ok && size > int64(lr.Len()) {
			return nil, fmt.Errorf("nn: tensor claims %d bytes, only %d remain", size, lr.Len())
		}
		t := tensor.New(shape...)
		if err := binary.Read(r, binary.LittleEndian, t.Data); err != nil {
			return nil, fmt.Errorf("nn: reading data for %q: %w", name, err)
		}
		params = append(params, &Parameter{Name: name, Value: t})
	}
	return params, nil
}

// EncodedSize returns the exact byte size WriteNamed will produce for the
// given parameters. The network simulator uses it to account transfers.
func EncodedSize(params []*Parameter) int {
	n := 4
	for _, p := range params {
		n += 2 + len(p.Name) + 1 + 4*p.Value.Rank() + 4*p.Value.Len()
	}
	return n
}

// HashParams returns a fingerprint of params — names, shapes and float
// bits, in order — that two endpoints compare to prove they hold the same
// values before one sends the other something relative to them: the
// pretrained base of a delta checkpoint, the reference of a student diff.
// It is FNV-1a over the WriteNamed framing, folding each header byte and
// then each float32 as one 32-bit word (a diff's reference is hashed on
// both ends of every key frame; a round per byte would cost four times
// as much). Bit-identical parameter lists hash equal; anything else almost
// surely does not.
func HashParams(params []*Parameter) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	fold := func(v uint32) { h = (h ^ uint64(v)) * prime }
	fold(uint32(len(params)))
	for _, p := range params {
		fold(uint32(len(p.Name)))
		for i := 0; i < len(p.Name); i++ {
			fold(uint32(p.Name[i]))
		}
		fold(uint32(p.Value.Rank()))
		for _, d := range p.Value.Shape() {
			fold(uint32(d))
		}
		for _, v := range p.Value.Data {
			fold(math.Float32bits(v))
		}
	}
	return h
}

// TrainableSubset returns everything distillation changes in ps — the
// "updated part" of Algorithm 3's ToClient call: the non-frozen parameters
// plus the running statistics of every BatchNorm layer that still trains
// (BatchNorm2D.Forward moves exactly those). The statistics are Frozen —
// "is optimised" and "is shipped" are two questions — so this, not the
// Frozen flag, defines what a diff, a best-weights snapshot and the
// simulator's update carry.
func TrainableSubset(ps *ParamSet) []*Parameter {
	var out []*Parameter
	for _, p := range ps.All() {
		if layer, stat := bnStatLayer(p.Name); !p.Frozen || stat && ps.bnTrains(layer) {
			out = append(out, p)
		}
	}
	return out
}

// bnTrains is BatchNorm2D.trains by name, for callers that hold only a
// parameter set.
func (ps *ParamSet) bnTrains(layer string) bool {
	gamma, beta := ps.Get(layer+".gamma"), ps.Get(layer+".beta")
	return gamma != nil && !gamma.Frozen || beta != nil && !beta.Frozen
}

// ApplyNamed copies values from the given parameters into ps by name
// (Algorithm 4's ApplyUpdate). Unknown names return an error; shape
// mismatches return an error.
func ApplyNamed(ps *ParamSet, params []*Parameter) error {
	for _, p := range params {
		dst := ps.Get(p.Name)
		if dst == nil {
			return fmt.Errorf("nn: ApplyNamed: unknown parameter %q", p.Name)
		}
		if !dst.Value.SameShape(p.Value) {
			return fmt.Errorf("nn: ApplyNamed: shape mismatch for %q: %v vs %v",
				p.Name, dst.Value.Shape(), p.Value.Shape())
		}
		dst.Value.CopyFrom(p.Value)
	}
	return nil
}
