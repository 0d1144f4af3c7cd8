// Package transport implements the wire protocol between the ShadowTutor
// client and server: message types for the key-frame upload and
// student-diff download of Algorithms 3–4, length-prefixed binary framing,
// and two interchangeable carriers — real TCP (optionally bandwidth
// throttled) and an in-process pipe for deterministic tests.
package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message kinds.
const (
	// MsgHello carries the protocol version and session parameters.
	MsgHello MsgType = iota + 1
	// MsgStudentFull carries the complete student checkpoint (server →
	// client at session start, Algorithm 3 line 1).
	MsgStudentFull
	// MsgKeyFrame carries one key frame image (client → server).
	MsgKeyFrame
	// MsgStudentDiff carries the updated (trainable) parameters plus the
	// post-distillation metric (server → client, Algorithm 3 line 6).
	MsgStudentDiff
	// MsgPrediction is reserved: it carried a mask for a naive-offloading
	// peer that no longer exists, and keeps its number so the types after
	// it keep theirs. No peer sends it; the server rejects it.
	MsgPrediction
	// MsgShutdown ends the session.
	MsgShutdown
	// MsgResume opens a connection by re-attaching to a disconnected
	// session (client → server) instead of a fresh Hello: the client names
	// the session, its epoch, and the last student-diff sequence it
	// applied, so the server can replay only the missed suffix.
	MsgResume
	// MsgResumeAck answers a Resume (server → client): replay, full
	// checkpoint fallback, or rejection.
	MsgResumeAck
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgStudentFull:
		return "StudentFull"
	case MsgKeyFrame:
		return "KeyFrame"
	case MsgStudentDiff:
		return "StudentDiff"
	case MsgPrediction:
		return "Prediction"
	case MsgShutdown:
		return "Shutdown"
	case MsgResume:
		return "Resume"
	case MsgResumeAck:
		return "ResumeAck"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Hello is the session handshake payload, sent client → server to open a
// session and echoed server → client as the acknowledgement. SessionID lets
// a client name its session on a multi-session server (internal/serve);
// zero asks the server to assign one, and the ack carries the ID actually
// assigned. The body has one length (helloBodyBytes).
type Hello struct {
	Version   uint16
	NumClass  uint16
	FrameW    uint16
	FrameH    uint16
	Partial   bool
	SessionID uint64
	// Epoch identifies the session's attachment generation. The server's
	// ack carries the epoch it assigned; a client presents it back in a
	// Resume so stale reconnects (from before an earlier resume) are
	// rejected instead of silently forking the session.
	Epoch uint64
	// BaseHash is nn.HashParams of the pretrained base the sender holds, zero
	// for none. The server sends a base-relative checkpoint only on an exact
	// match, and its ack then echoes the hash.
	BaseHash uint64
}

// Version is the current protocol version. Version 2 added the SessionID
// field and the server's Hello acknowledgement carrying the assigned ID.
// Version 3 added diff/key-frame sequence numbers, the session Epoch, and
// the Resume/ResumeAck handshake for reconnecting clients. Version 4 made
// student diffs relative (StudentDiff) and run-length coded the key
// frame's label; it shares no diff or key-frame body with version 3.
// Version 5 gave every student diff one body, with the link decision in its
// header, made every checkpoint a parameter section, and dropped the
// capability mask from Hello and Resume. Version 6 made a diff's parameters
// one parameter section under every codec, where a lossy diff had carried
// absolute weights and raw statistics. Version 7 made the key frame's image
// lossless gradient-predicted planes (compress.AppendPlane), where it had
// been raw float32, and requires it to be CHW. Version 8 dropped the link
// policy's state and stride scale from the diff header, which now names only
// the codec. Version 9 put every integer payload on one entropy-coded stream
// (compress's integer stream): a diff's int8 symbols and bit-pattern
// distances (delta magic DLT3) and the key frame's planes, each of which
// now names its predictor: the gradient or LOCO-I's median edge detector.
// Version 10 added a third plane predictor, cross, which predicts each plane
// after the first from the plane before it (G from R, B from G).
const Version = 10

// KeyFrame is the client → server key frame payload. Label optionally
// carries the synthetic ground-truth mask, one class per pixel of Image:
// the Oracle teacher (the reproduction's stand-in for Mask R-CNN, see
// internal/teacher) derives its pseudo-label from it. A real deployment
// with a learned teacher leaves it nil. On the wire it is run-length coded
// — a couple of hundred bytes beside the image — and those bytes are real
// traffic: the conn accounts and throttles them like any others. Only the
// nominal size, KeyFrameWireBytes, leaves them out.
type KeyFrame struct {
	FrameIndex uint32
	Image      *tensor.Tensor // CHW float32
	Label      []int32        // optional oracle side-channel, H·W classes
	// Seq numbers key frames monotonically within a session from 1,
	// surviving reconnects — the server rejects a non-increasing Seq as a
	// confused resume.
	Seq uint64
}

// StudentDiff is the server → client update payload: the parameters one
// key frame's distillation changed (nn.TrainableSubset), and the codec they
// were encoded under.
//
// Under every codec they travel as a parameter Section against Ref — the
// values the receiver holds, by the sender's account — so what travels is
// how far each weight moved, not where it ended up; the codec carries the
// weights' distances (compress.Delta). A sender that cannot vouch for what
// the receiver holds leaves Ref nil and the section is absolute. Because a
// relative section only means something next to the reference, decoding is
// two steps: DecodeStudentDiff parses the header and keeps the section
// undecoded — it needs no state and may run ahead of application, on a
// whole replay suffix — and Resolve, called when every earlier diff has
// been applied, turns it into Params.
type StudentDiff struct {
	FrameIndex uint32
	Metric     float64 // post-distillation mIoU of Algorithm 1
	// Params holds the updated parameters as absolute values: what a sender
	// encodes, and what a receiver holds after Resolve.
	Params []*nn.Parameter
	// Seq numbers student diffs monotonically within a session (1, 2, …).
	// A resuming client declares the last Seq it applied and the server
	// replays only the journal suffix past it.
	Seq uint64
	// Codec names the codec of the parameters (empty encodes as "raw").
	Codec string

	// Ref (sender side) holds the receiver's current values of Params; nil
	// encodes an absolute diff.
	Ref *nn.ParamSet

	// Section (receiver side) is the diff's parameter section as parsed.
	Section
}

// helloBodyBytes is the encoded size of a Hello body. The decoder requires
// it exactly: a truncated or padded Hello is a protocol error.
const helloBodyBytes = 2 + 2 + 2 + 2 + 1 + 8 + 8 + 8

// EncodeHello serialises a Hello body.
func EncodeHello(h Hello) []byte {
	b := make([]byte, helloBodyBytes)
	binary.LittleEndian.PutUint16(b[0:], h.Version)
	binary.LittleEndian.PutUint16(b[2:], h.NumClass)
	binary.LittleEndian.PutUint16(b[4:], h.FrameW)
	binary.LittleEndian.PutUint16(b[6:], h.FrameH)
	if h.Partial {
		b[8] = 1
	}
	binary.LittleEndian.PutUint64(b[9:], h.SessionID)
	binary.LittleEndian.PutUint64(b[17:], h.Epoch)
	binary.LittleEndian.PutUint64(b[25:], h.BaseHash)
	return b
}

// DecodeHello parses a Hello body.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) != helloBodyBytes {
		return Hello{}, fmt.Errorf("transport: hello body is %d bytes, want %d", len(b), helloBodyBytes)
	}
	return Hello{
		Version:   binary.LittleEndian.Uint16(b[0:]),
		NumClass:  binary.LittleEndian.Uint16(b[2:]),
		FrameW:    binary.LittleEndian.Uint16(b[4:]),
		FrameH:    binary.LittleEndian.Uint16(b[6:]),
		Partial:   b[8] != 0,
		SessionID: binary.LittleEndian.Uint64(b[9:]),
		Epoch:     binary.LittleEndian.Uint64(b[17:]),
		BaseHash:  binary.LittleEndian.Uint64(b[25:]),
	}, nil
}

// EncodeKeyFrame serialises a KeyFrame body:
//
//	index u32 · rank u8 (3) · C, H, W i32 · C × plane · runLen u32 · runs · seq u64
//
// Each plane is compress.AppendPlane's lossless predicted coding of one H×W
// channel, each after the first against the channel before it. The label
// follows as runLen bytes of (uvarint class, uvarint run length) pairs in
// pixel order. The image must be CHW.
func EncodeKeyFrame(k KeyFrame) []byte {
	if k.Image.Rank() != 3 {
		panic(fmt.Sprintf("transport: key frame image has rank %d, want CHW", k.Image.Rank()))
	}
	b := make([]byte, 0, KeyFrameWireBytes(k)+len(k.Label)/16)
	b = binary.LittleEndian.AppendUint32(b, k.FrameIndex)
	b = append(b, 3)
	for _, d := range k.Image.Shape() {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	hw, w := k.Image.Dim(1)*k.Image.Dim(2), k.Image.Dim(2)
	var ref []float32 // the plane before, which the next predicts from
	for p := 0; p < len(k.Image.Data); p += hw {
		plane := k.Image.Data[p : p+hw]
		b = compress.AppendPlane(b, plane, ref, w)
		ref = plane
	}
	var runs []byte
	for i := 0; i < len(k.Label); {
		j := i + 1
		for j < len(k.Label) && k.Label[j] == k.Label[i] {
			j++
		}
		runs = binary.AppendUvarint(runs, uint64(uint32(k.Label[i])))
		runs = binary.AppendUvarint(runs, uint64(j-i))
		i = j
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(runs)))
	b = append(b, runs...)
	return binary.LittleEndian.AppendUint64(b, k.Seq)
}

// KeyFrameWireBytes returns the nominal size of a key frame: its image as
// uncompressed float32 under a version-6 header, without the oracle label
// side-channel. It is the unit netsim.HDScale maps to the paper's HD frame,
// which scales with the image alone; the body EncodeKeyFrame codes is
// smaller for any rendered frame.
func KeyFrameWireBytes(k KeyFrame) int {
	return 4 + 1 + 4*k.Image.Rank() + 4*k.Image.Len() + 4 + 8
}

// keyFrameHead is the size of a KeyFrame body's index, rank and shape.
const keyFrameHead = 4 + 1 + 3*4

// DecodeKeyFrame parses a KeyFrame body.
func DecodeKeyFrame(b []byte) (KeyFrame, error) {
	var k KeyFrame
	if len(b) < keyFrameHead {
		return k, fmt.Errorf("transport: keyframe header of %d bytes, want %d", len(b), keyFrameHead)
	}
	k.FrameIndex = binary.LittleEndian.Uint32(b)
	if b[4] != 3 {
		return k, fmt.Errorf("transport: keyframe image rank %d, want CHW", b[4])
	}
	var shape [3]int
	elems := int64(1)
	for i := range shape {
		d := int32(binary.LittleEndian.Uint32(b[5+4*i:]))
		if d <= 0 || d > 1<<16 {
			return k, fmt.Errorf("transport: keyframe implausible dim %d", d)
		}
		shape[i] = int(d)
		// int64 with a check after every multiply keeps the running product
		// ≤ 2^42 (MaxBody/4 × 2^16) — no overflow, even on 32-bit builds.
		elems *= int64(d)
		if elems > MaxBody/4 {
			return k, fmt.Errorf("transport: keyframe tensor of %d elems exceeds frame limit", elems)
		}
	}
	rest := b[keyFrameHead:]
	// Never allocate more than the frame actually carries: every plane
	// costs a predictor byte, a length byte and at least a bit a pixel, so
	// a corrupt shape cannot force a giant allocation before the planes fail
	// to parse.
	c, hw, w := shape[0], shape[1]*shape[2], shape[2]
	if need := int64(c) * (2 + (int64(hw)+7)/8); need > int64(len(rest)) {
		return k, fmt.Errorf("transport: keyframe of %v needs at least %d plane bytes, only %d remain", shape, need, len(rest))
	}
	k.Image = tensor.New(shape[:]...)
	var ref []float32
	for p := 0; p < len(k.Image.Data); p += hw {
		var err error
		plane := k.Image.Data[p : p+hw]
		if rest, err = compress.DecodePlane(plane, ref, rest, w); err != nil {
			return k, fmt.Errorf("transport: keyframe plane %d: %w", p/hw, err)
		}
		ref = plane
	}
	if len(rest) < 4 {
		return k, fmt.Errorf("transport: keyframe label length missing")
	}
	runBytes := binary.LittleEndian.Uint32(rest)
	if rest = rest[4:]; int64(runBytes) > int64(len(rest)) {
		return k, fmt.Errorf("transport: keyframe claims %d label bytes, only %d remain", runBytes, len(rest))
	}
	if runBytes > 0 {
		// The image just parsed, not the runs, says how long the label is:
		// one class per pixel of a plane.
		label, err := decodeLabelRuns(rest[:runBytes], hw)
		if err != nil {
			return k, err
		}
		k.Label = label
	}
	if rest = rest[runBytes:]; len(rest) != 8 {
		return k, fmt.Errorf("transport: keyframe has %d bytes after its label, want an 8-byte seq", len(rest))
	}
	if k.Seq = binary.LittleEndian.Uint64(rest); k.Seq == 0 {
		return k, fmt.Errorf("transport: keyframe seq 0")
	}
	return k, nil
}

// decodeLabelRuns expands (class, run length) pairs into exactly pixels
// classes; runs that stop short of the image or run past it are an error.
func decodeLabelRuns(runs []byte, pixels int) ([]int32, error) {
	label := make([]int32, 0, pixels)
	for len(runs) > 0 {
		class, n := binary.Uvarint(runs)
		if n <= 0 || class > math.MaxUint32 {
			return nil, fmt.Errorf("transport: keyframe label class malformed")
		}
		run, m := binary.Uvarint(runs[n:])
		if m <= 0 || run == 0 || run > uint64(pixels-len(label)) {
			return nil, fmt.Errorf("transport: keyframe label run of %d at pixel %d of %d", run, len(label), pixels)
		}
		runs = runs[n+m:]
		for ; run > 0; run-- {
			label = append(label, int32(uint32(class)))
		}
	}
	if len(label) != pixels {
		return nil, fmt.Errorf("transport: keyframe label covers %d of %d pixels", len(label), pixels)
	}
	return label, nil
}

// Section is a parameter section as parsed — the body of every
// MsgStudentFull, and the parameters of every StudentDiff:
//
//	flags u8 · [refHash u64] · compress.Delta stream
//
// Relative reports that the stream is relative to a reference the receiver
// holds, whose nn.HashParams is RefHash; otherwise it is absolute (the zero
// base). Payload is the undecoded stream.
type Section struct {
	Relative bool
	RefHash  uint64
	Payload  []byte
}

// sectionRelative is the flag bit of a relative Section.
const sectionRelative = 1

// AppendSection writes params to buf as a Section: relative to ref when it
// is non-nil, absolute otherwise, with inner carrying the weights' dense
// deltas (nil is raw, which is bit-exact).
func AppendSection(buf *bytes.Buffer, params []*nn.Parameter, ref *nn.ParamSet, inner compress.Codec) error {
	if ref == nil {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(sectionRelative)
		binary.Write(buf, binary.LittleEndian, nn.HashParams(ref.All()))
	}
	if inner == nil {
		inner = compress.Raw{}
	}
	return (&compress.Delta{Inner: inner, Base: ref}).Encode(buf, params)
}

// ParseSection splits a Section into its header and Payload.
func ParseSection(b []byte) (Section, error) {
	var s Section
	switch {
	case len(b) == 0 || b[0]&^sectionRelative != 0:
		return s, fmt.Errorf("transport: parameter section has no known flags byte")
	case b[0] == sectionRelative && len(b) < 1+8:
		return s, fmt.Errorf("transport: relative parameter section has no reference hash")
	case b[0] == sectionRelative:
		s.Relative, s.RefHash, b = true, binary.LittleEndian.Uint64(b[1:]), b[8:]
	}
	s.Payload = b[1:]
	return s, nil
}

// Decode decodes Payload against held, the parameter set the section is
// about to be applied to. A relative section is only legal over the
// reference its sender encoded against: every parameter it names must exist
// in held, and together they must hash to RefHash — otherwise the two ends
// have diverged, and applying the distances would produce a model nobody
// trained.
func (s Section) Decode(held *nn.ParamSet) ([]*nn.Parameter, error) {
	codec := &compress.Delta{Inner: compress.Raw{}}
	if s.Relative {
		if held == nil {
			return nil, fmt.Errorf("transport: relative parameter section, but the receiver holds no reference")
		}
		codec.Base = held
	}
	r := bytes.NewReader(s.Payload)
	params, err := codec.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("transport: parameter section: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("transport: parameter section has %d trailing bytes", r.Len())
	}
	if s.Relative {
		ref := make([]*nn.Parameter, len(params))
		for i, p := range params {
			if ref[i] = held.Get(p.Name); ref[i] == nil {
				return nil, fmt.Errorf("transport: relative section names %q, which the receiver does not hold", p.Name)
			}
		}
		if got := nn.HashParams(ref); got != s.RefHash {
			return nil, fmt.Errorf("transport: section is relative to reference %#x, receiver holds %#x", s.RefHash, got)
		}
	}
	return params, nil
}

// DiffCodec resolves the codec a diff body or a server's configuration
// names — the one check EncodeStudentDiff, DecodeStudentDiff and
// serve.NewManager share. It rejects the empty name (compress.ByName reads
// it as raw, which would let "static:" through) and base-relative "delta+…"
// codecs: every diff is a delta stream already, and deltas do not nest.
func DiffCodec(name string) (compress.Codec, error) {
	codec, ok := compress.ByName(name)
	if !ok || name == "" {
		return nil, fmt.Errorf("transport: diff codec %q unknown", name)
	}
	if _, isDelta := codec.(*compress.Delta); isDelta {
		return nil, fmt.Errorf("transport: base-relative diff codec %q not allowed", name)
	}
	return codec, nil
}

// diffHead is the fixed part of a StudentDiff body, up to the codec name.
const diffHead = 4 + 8 + 8 + 1

// EncodeStudentDiff serialises a StudentDiff body:
//
//	frameIndex u32 · metric f64 · seq u64 · codecLen u8 · codec ·
//	parameter section
//
// The parameters are a Section against d.Ref under the codec: bit-exact
// under "raw", the weights' deltas quantised or pruned under a lossy codec,
// and the BatchNorm running statistics bit-exact under every codec
// (compress.Delta).
func EncodeStudentDiff(d StudentDiff) ([]byte, error) {
	name := d.Codec
	if name == "" {
		name = "raw"
	}
	codec, err := DiffCodec(name)
	if err != nil {
		return nil, err
	}
	name = codec.Name()
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, d.FrameIndex)
	binary.Write(&buf, binary.LittleEndian, math.Float64bits(d.Metric))
	binary.Write(&buf, binary.LittleEndian, d.Seq)
	buf.WriteByte(byte(len(name)))
	buf.WriteString(name)
	if err := AppendSection(&buf, d.Params, d.Ref, codec); err != nil {
		return nil, fmt.Errorf("transport: diff under %s: %w", name, err)
	}
	return buf.Bytes(), nil
}

// DecodeStudentDiff parses a StudentDiff body. It needs no state: the
// parameters stay in the diff's Section until Resolve.
func DecodeStudentDiff(b []byte) (StudentDiff, error) {
	var d StudentDiff
	if len(b) < diffHead {
		return d, fmt.Errorf("transport: diff body of %d bytes has no header", len(b))
	}
	d.FrameIndex = binary.LittleEndian.Uint32(b)
	d.Metric = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	if d.Seq = binary.LittleEndian.Uint64(b[12:]); d.Seq == 0 {
		return d, fmt.Errorf("transport: diff seq 0")
	}
	nameLen := int(b[20])
	if b = b[diffHead:]; len(b) < nameLen {
		return d, fmt.Errorf("transport: diff codec name cut short")
	}
	d.Codec = string(b[:nameLen])
	if _, err := DiffCodec(d.Codec); err != nil {
		return d, err
	}
	var err error
	d.Section, err = ParseSection(b[nameLen:])
	return d, err
}

// Resolve decodes the diff's Section into Params against held
// (Section.Decode). A diff without Payload (built in memory) resolves to
// itself.
func (d *StudentDiff) Resolve(held *nn.ParamSet) error {
	if d.Payload == nil {
		return nil
	}
	params, err := d.Section.Decode(held)
	if err != nil {
		return fmt.Errorf("transport: diff seq %d: %w", d.Seq, err)
	}
	d.Params, d.Payload = params, nil
	return nil
}

// Resume is the reconnect handshake payload (client → server): instead of
// a fresh Hello, the client names the detached session it owns, the epoch
// it was attached under, and the last student-diff sequence it applied.
type Resume struct {
	SessionID   uint64
	Epoch       uint64
	LastDiffSeq uint64
	// BaseHash mirrors Hello's, so the server can send a full fallback for
	// this reconnect base-relative too.
	BaseHash uint64
}

// resumeBodyBytes is the encoded size of a Resume body. The decoder requires
// it exactly: a truncated or padded Resume is a protocol error that must
// fail only the offending connection.
const resumeBodyBytes = 4 * 8

// EncodeResume serialises a Resume body.
func EncodeResume(r Resume) []byte {
	b := make([]byte, resumeBodyBytes)
	binary.LittleEndian.PutUint64(b[0:], r.SessionID)
	binary.LittleEndian.PutUint64(b[8:], r.Epoch)
	binary.LittleEndian.PutUint64(b[16:], r.LastDiffSeq)
	binary.LittleEndian.PutUint64(b[24:], r.BaseHash)
	return b
}

// DecodeResume parses a Resume body.
func DecodeResume(b []byte) (Resume, error) {
	if len(b) != resumeBodyBytes {
		return Resume{}, fmt.Errorf("transport: resume body is %d bytes, want %d", len(b), resumeBodyBytes)
	}
	return Resume{
		SessionID:   binary.LittleEndian.Uint64(b[0:]),
		Epoch:       binary.LittleEndian.Uint64(b[8:]),
		LastDiffSeq: binary.LittleEndian.Uint64(b[16:]),
		BaseHash:    binary.LittleEndian.Uint64(b[24:]),
	}, nil
}

// ResumeStatus is the server's verdict on a Resume request.
type ResumeStatus uint8

// Resume verdicts.
const (
	// ResumeReplay accepts the resume; NumDiffs journaled StudentDiff
	// messages follow, covering (LastDiffSeq, HeadSeq].
	ResumeReplay ResumeStatus = iota + 1
	// ResumeFull accepts the resume but the journal no longer covers the
	// client's gap; a full StudentFull checkpoint follows instead.
	ResumeFull
	// ResumeReject permanently refuses the resume (unknown or expired
	// session, epoch mismatch); the client must fall back to a fresh
	// Hello handshake.
	ResumeReject
	// ResumeRetry transiently refuses the resume (the session is still
	// attached to a connection the server has not yet torn down); the
	// client should back off and retry.
	ResumeRetry
)

// String implements fmt.Stringer.
func (s ResumeStatus) String() string {
	switch s {
	case ResumeReplay:
		return "replay"
	case ResumeFull:
		return "full"
	case ResumeReject:
		return "reject"
	case ResumeRetry:
		return "retry"
	}
	return fmt.Sprintf("ResumeStatus(%d)", uint8(s))
}

// ResumeAck answers a Resume (server → client).
type ResumeAck struct {
	Status ResumeStatus
	// Epoch is the session's new attachment epoch (accepting statuses).
	Epoch uint64
	// HeadSeq is the latest diff sequence the server has produced; after
	// the replay or the full checkpoint the client is current through it.
	HeadSeq uint64
	// NumDiffs is how many journaled diffs follow (ResumeReplay only).
	NumDiffs uint32
	// Reason explains a rejection in human terms.
	Reason string
}

// maxResumeReason bounds the rejection text so a hostile server cannot
// force a giant allocation at the client's protocol boundary.
const maxResumeReason = 4096

// EncodeResumeAck serialises a ResumeAck body.
func EncodeResumeAck(a ResumeAck) ([]byte, error) {
	if len(a.Reason) > maxResumeReason {
		return nil, fmt.Errorf("transport: resume reason of %d bytes exceeds limit", len(a.Reason))
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(a.Status))
	binary.Write(&buf, binary.LittleEndian, a.Epoch)
	binary.Write(&buf, binary.LittleEndian, a.HeadSeq)
	binary.Write(&buf, binary.LittleEndian, a.NumDiffs)
	binary.Write(&buf, binary.LittleEndian, uint16(len(a.Reason)))
	buf.WriteString(a.Reason)
	return buf.Bytes(), nil
}

// DecodeResumeAck parses a ResumeAck body.
func DecodeResumeAck(b []byte) (ResumeAck, error) {
	var a ResumeAck
	r := bytes.NewReader(b)
	status, err := r.ReadByte()
	if err != nil {
		return a, fmt.Errorf("transport: resume ack status: %w", err)
	}
	a.Status = ResumeStatus(status)
	switch a.Status {
	case ResumeReplay, ResumeFull, ResumeReject, ResumeRetry:
	default:
		return a, fmt.Errorf("transport: unknown resume status %d", status)
	}
	if err := binary.Read(r, binary.LittleEndian, &a.Epoch); err != nil {
		return a, fmt.Errorf("transport: resume ack epoch: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &a.HeadSeq); err != nil {
		return a, fmt.Errorf("transport: resume ack head seq: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &a.NumDiffs); err != nil {
		return a, fmt.Errorf("transport: resume ack diff count: %w", err)
	}
	var reasonLen uint16
	if err := binary.Read(r, binary.LittleEndian, &reasonLen); err != nil {
		return a, fmt.Errorf("transport: resume ack reason length: %w", err)
	}
	if int(reasonLen) > maxResumeReason {
		return a, fmt.Errorf("transport: implausible resume reason of %d bytes", reasonLen)
	}
	if int(reasonLen) != r.Len() {
		return a, fmt.Errorf("transport: resume ack claims %d reason bytes, %d remain", reasonLen, r.Len())
	}
	if reasonLen > 0 {
		reason := make([]byte, reasonLen)
		if _, err := io.ReadFull(r, reason); err != nil {
			return a, fmt.Errorf("transport: resume ack reason: %w", err)
		}
		a.Reason = string(reason)
	}
	return a, nil
}

// Message is a framed protocol unit.
type Message struct {
	Type MsgType
	Body []byte
}

// WriteMessage frames and writes a message: 1-byte type, 4-byte body length,
// body.
func WriteMessage(w io.Writer, m Message) error {
	hdr := [5]byte{byte(m.Type)}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.Body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: writing header: %w", err)
	}
	if _, err := w.Write(m.Body); err != nil {
		return fmt.Errorf("transport: writing body: %w", err)
	}
	return nil
}

// MaxBody bounds message bodies to catch corrupt frames early.
const MaxBody = 1 << 28

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxBody {
		return Message{}, fmt.Errorf("transport: frame size %d exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("transport: reading %d-byte body: %w", n, err)
	}
	return Message{Type: MsgType(hdr[0]), Body: body}, nil
}

// FrameOverhead is the fixed per-message framing cost in bytes.
const FrameOverhead = 5
