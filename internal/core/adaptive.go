package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/compress"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/transport"
)

// The adaptive diff envelope is a self-describing MsgStudentDiff body: when
// the link policy engine is active, every diff names the codec it was
// encoded with and carries the policy's stride scale, so the codec can
// change between consecutive diffs without renegotiation — and journal
// replay after a resume decodes old envelopes with whatever codec they were
// written under.
//
// Wire layout (little-endian):
//
//	magic (0xAD) · version (3) · state u8 · strideScale f32 ·
//	codecLen u8 · codec name · body
//
// Under "raw" — the one bit-exact diff codec — body is the policy-less
// MsgStudentDiff body itself (transport.EncodeStudentDiff): relative to the
// reference whenever the server can vouch for one, resolved by the client
// at apply time. Under a lossy codec it is
//
//	frameIndex u32 · metric f64bits · seq u64 · codec payload ·
//	statistics (nn.WriteNamed)
//
// with absolute values throughout: the codec payload carries the diff's
// weights, and the BatchNorm running statistics that travel with them
// (nn.TrainableSubset) ride the trailing section as raw float32 whatever
// the codec. A lossy codec is a contract about weights: per-tensor int8
// flushes a small running variance to zero and pruning zeroes it outright,
// and 1/√(var+ε) turns either into a gain of ~300 on that channel. There is
// one format: envelopes of versions 1 (no statistics section) and 2
// (absolute raw body) are rejected.
const (
	adaptiveMagic   = 0xAD
	adaptiveVersion = 3
)

// diffCodec resolves the codec a link decision or an adaptive envelope
// names — the one check PolicyByName, EncodeAdaptiveDiff and
// DecodeAdaptiveDiff share. It rejects the empty name (compress.ByName
// reads it as raw, which would let "static:" through) and codecs that need
// out-of-band receiver state: a base-relative "delta+…" diff cannot be
// decoded by a client that missed the base.
func diffCodec(name string) (compress.Codec, error) {
	codec, ok := compress.ByName(name)
	if !ok || name == "" {
		return nil, fmt.Errorf("core: adaptive envelope: unknown codec %q", name)
	}
	if _, isDelta := codec.(*compress.Delta); isDelta {
		return nil, fmt.Errorf("core: adaptive envelope: base-relative codec %q not allowed", name)
	}
	return codec, nil
}

// PolicyByName is netsim.PolicyByName plus the check netsim cannot make:
// every decision the policy can take must name a codec diffCodec accepts,
// so a bad spec fails where the policy is configured instead of at each
// session's first key frame.
func PolicyByName(spec string) (netsim.LinkPolicy, error) {
	p, err := netsim.PolicyByName(spec)
	if err != nil {
		return nil, err
	}
	for _, dec := range p.Decisions() {
		if _, err := diffCodec(dec.Codec); err != nil {
			return nil, fmt.Errorf("core: link policy %q: %w", spec, err)
		}
	}
	return p, nil
}

// EncodeAdaptiveDiff encodes a student diff under the codec the link policy
// decided, framing it so the receiver can decode without knowing the
// decision in advance.
func EncodeAdaptiveDiff(d transport.StudentDiff, dec netsim.LinkDecision) ([]byte, error) {
	codec, err := diffCodec(dec.Codec)
	if err != nil {
		return nil, err
	}
	name := codec.Name()
	if len(name) > 255 {
		return nil, fmt.Errorf("core: adaptive envelope: codec name %q too long", name)
	}
	scale := dec.StrideScale
	if scale <= 0 {
		scale = 1
	}
	var buf bytes.Buffer
	buf.WriteByte(adaptiveMagic)
	buf.WriteByte(adaptiveVersion)
	buf.WriteByte(byte(dec.State))
	binary.Write(&buf, binary.LittleEndian, math.Float32bits(float32(scale)))
	buf.WriteByte(byte(len(name)))
	buf.WriteString(name)
	if compress.Exact(codec) {
		body, err := transport.EncodeStudentDiff(d)
		if err != nil {
			return nil, fmt.Errorf("core: adaptive envelope: %w", err)
		}
		buf.Write(body)
		return buf.Bytes(), nil
	}
	binary.Write(&buf, binary.LittleEndian, d.FrameIndex)
	binary.Write(&buf, binary.LittleEndian, math.Float64bits(d.Metric))
	binary.Write(&buf, binary.LittleEndian, d.Seq)
	weights, stats := nn.SplitBNStats(d.Params)
	if err := codec.Encode(&buf, weights); err != nil {
		return nil, fmt.Errorf("core: adaptive envelope: encode %s: %w", name, err)
	}
	if err := nn.WriteNamed(&buf, stats); err != nil {
		return nil, fmt.Errorf("core: adaptive envelope: statistics: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeAdaptiveDiff parses an adaptive envelope, returning the diff (with
// StrideScale populated from the envelope) and the link decision it was
// encoded under. Like transport.DecodeStudentDiff it needs no state: a raw
// envelope's parameters stay in the diff's Payload until Resolve, a lossy
// envelope's are decoded here.
func DecodeAdaptiveDiff(b []byte) (transport.StudentDiff, netsim.LinkDecision, error) {
	var d transport.StudentDiff
	var dec netsim.LinkDecision
	r := bytes.NewReader(b)
	var head [3]byte
	if _, err := r.Read(head[:]); err != nil || head[0] != adaptiveMagic {
		return d, dec, fmt.Errorf("core: adaptive envelope: bad magic")
	}
	if head[1] != adaptiveVersion {
		return d, dec, fmt.Errorf("core: adaptive envelope: unsupported version %d", head[1])
	}
	dec.State = netsim.PolicyState(head[2])
	var scaleBits uint32
	if err := binary.Read(r, binary.LittleEndian, &scaleBits); err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: stride scale: %w", err)
	}
	dec.StrideScale = float64(math.Float32frombits(scaleBits))
	if dec.StrideScale <= 0 || math.IsNaN(dec.StrideScale) || math.IsInf(dec.StrideScale, 0) {
		return d, dec, fmt.Errorf("core: adaptive envelope: bad stride scale %v", dec.StrideScale)
	}
	nameLen, err := r.ReadByte()
	if err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: codec length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: codec name: %w", err)
	}
	dec.Codec = string(name)
	codec, err := diffCodec(dec.Codec)
	if err != nil {
		return d, dec, err
	}
	if compress.Exact(codec) {
		if d, err = transport.DecodeStudentDiff(b[len(b)-r.Len():]); err != nil {
			return d, dec, fmt.Errorf("core: adaptive envelope: %w", err)
		}
		d.StrideScale = dec.StrideScale
		return d, dec, nil
	}
	if err := binary.Read(r, binary.LittleEndian, &d.FrameIndex); err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: frame index: %w", err)
	}
	var bits uint64
	if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: metric: %w", err)
	}
	d.Metric = math.Float64frombits(bits)
	if err := binary.Read(r, binary.LittleEndian, &d.Seq); err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: seq: %w", err)
	}
	params, err := codec.Decode(r)
	if err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: decode %s: %w", dec.Codec, err)
	}
	stats, err := nn.ReadNamed(r)
	if err != nil {
		return d, dec, fmt.Errorf("core: adaptive envelope: statistics: %w", err)
	}
	if r.Len() != 0 {
		return d, dec, fmt.Errorf("core: adaptive envelope: %d trailing bytes", r.Len())
	}
	d.Params = append(params, stats...)
	d.StrideScale = dec.StrideScale
	return d, dec, nil
}
