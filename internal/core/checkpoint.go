package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/transport"
)

// checkpointMagic prefixes a delta-encoded MsgStudentFull body. Its
// little-endian uint32 (0x7f435453) is far above nn.ReadNamed's 1<<20
// parameter-count bound, so a legacy decoder can never mistake a delta body
// for a raw checkpoint, and DecodeCheckpointBody can sniff the format from
// the first four bytes alone.
var checkpointMagic = [4]byte{'S', 'T', 'C', 0x7f}

// CheckpointCodec encodes full student checkpoints as deltas against the
// shared pretrained base (ROADMAP: "delta-encoded checkpoints"). The server
// only uses it for clients that advertised CapDeltaCheckpoint with a
// matching base hash; everyone else keeps receiving raw nn.WriteNamed
// bodies, so the capability is a pure optimisation.
type CheckpointCodec struct {
	// Base is the pretrained parameter set both endpoints hold.
	Base *nn.ParamSet
	// Codec is the inner codec for the dense part of the delta (nil = Raw,
	// which keeps the checkpoint bit-exact).
	Codec compress.Codec

	hashOnce sync.Once
	hash     uint64
}

// Hash returns (computing once) the base fingerprint the client must echo
// in Hello.BaseHash/Resume.BaseHash for delta checkpoints to be used.
func (c *CheckpointCodec) Hash() uint64 {
	c.hashOnce.Do(func() { c.hash = nn.HashParams(c.Base.All()) })
	return c.hash
}

// Match reports whether a peer that sent caps and baseHash can accept
// delta-encoded checkpoints from this codec.
func (c *CheckpointCodec) Match(caps, baseHash uint64) bool {
	return c != nil && caps&transport.CapDeltaCheckpoint != 0 && baseHash == c.Hash()
}

// EncodeBody serialises params as a delta-encoded MsgStudentFull body.
func (c *CheckpointCodec) EncodeBody(params []*nn.Parameter) ([]byte, error) {
	body, _, err := c.encodeBody(params)
	return body, err
}

func (c *CheckpointCodec) encodeBody(params []*nn.Parameter) (body []byte, exact bool, err error) {
	inner := c.Codec
	if inner == nil {
		inner = compress.Raw{}
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	exact, err = compress.EncodeExact(&compress.Delta{Inner: inner, Base: c.Base}, &buf, params)
	if err != nil {
		return nil, false, fmt.Errorf("core: encoding delta checkpoint: %w", err)
	}
	return buf.Bytes(), exact, nil
}

// EncodeFor builds the MsgStudentFull body for a peer that sent caps and
// baseHash in its Hello or Resume: delta-encoded when they Match, the raw
// nn.WriteNamed stream otherwise — always, for a nil codec. exact reports
// whether the peer will hold params bit for bit (Server.ClientExact): a
// lossy inner codec is exact only while nothing it would quantise has
// moved off the base.
func (c *CheckpointCodec) EncodeFor(caps, baseHash uint64, params []*nn.Parameter) (body []byte, exact bool, err error) {
	if c.Match(caps, baseHash) {
		return c.encodeBody(params)
	}
	buf := bytes.NewBuffer(make([]byte, 0, nn.EncodedSize(params)))
	if err := nn.WriteNamed(buf, params); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), true, nil
}

// DecodeCheckpointBody parses a MsgStudentFull body in either format: the
// legacy raw nn.WriteNamed stream, or the delta-encoded form against base.
// A delta body arriving without a base is a protocol error — the server
// only sends deltas to peers that proved they hold the base.
func DecodeCheckpointBody(body []byte, base *nn.ParamSet) ([]*nn.Parameter, error) {
	if len(body) >= 4 && [4]byte(body[:4]) == checkpointMagic {
		if base == nil {
			return nil, fmt.Errorf("core: delta checkpoint received without a base model")
		}
		return (&compress.Delta{Inner: compress.Raw{}, Base: base}).Decode(bytes.NewReader(body[4:]))
	}
	// Guard against a corrupt magic-less stream whose leading count would
	// be astronomical — ReadNamed re-checks, this just improves the error.
	if len(body) >= 4 && binary.LittleEndian.Uint32(body) > 1<<20 {
		return nil, fmt.Errorf("core: checkpoint body is neither raw nor delta-encoded")
	}
	return nn.ReadNamed(bytes.NewReader(body))
}
