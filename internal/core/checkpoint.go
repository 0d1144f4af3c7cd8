package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/transport"
)

// CheckpointCodec encodes full student checkpoints — MsgStudentFull bodies,
// each one transport.Section — relative to the shared pretrained base for
// peers that proved they hold it, and absolute for everyone else.
type CheckpointCodec struct {
	// Base is the pretrained parameter set both endpoints hold.
	Base *nn.ParamSet
	// Codec is the inner codec for what training moved off the base (nil =
	// Raw, which keeps the checkpoint bit-exact).
	Codec compress.Codec

	hashOnce sync.Once
	hash     uint64
}

// Hash returns (computing once) the base fingerprint the client must echo
// in Hello.BaseHash/Resume.BaseHash for base-relative checkpoints.
func (c *CheckpointCodec) Hash() uint64 {
	c.hashOnce.Do(func() { c.hash = nn.HashParams(c.Base.All()) })
	return c.hash
}

// Match reports whether a peer that sent baseHash holds this codec's base.
func (c *CheckpointCodec) Match(baseHash uint64) bool {
	return c != nil && baseHash == c.Hash()
}

// EncodeBody serialises params as a base-relative MsgStudentFull body.
func (c *CheckpointCodec) EncodeBody(params []*nn.Parameter) ([]byte, error) {
	return c.EncodeFor(c.Hash(), params)
}

// EncodeFor builds the MsgStudentFull body for a peer that sent baseHash in
// its Hello or Resume: relative to the base when they Match, absolute under
// raw otherwise — always, for a nil codec. A lossy inner codec quantises
// or prunes what training moved off the base; the peer's copy is what the
// body decodes to (Server.View).
func (c *CheckpointCodec) EncodeFor(baseHash uint64, params []*nn.Parameter) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if c.Match(baseHash) {
		err = transport.AppendSection(&buf, params, c.Base, c.Codec)
	} else {
		buf.Grow(nn.EncodedSize(params) * 65 / 64) // a tensor header or two over nn.WriteNamed
		err = transport.AppendSection(&buf, params, nil, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpointBody parses a MsgStudentFull body against base, the
// pretrained set this peer holds (nil for none). A relative body over any
// other base is refused, as a relative diff over the wrong reference is.
func DecodeCheckpointBody(body []byte, base *nn.ParamSet) ([]*nn.Parameter, error) {
	s, err := transport.ParseSection(body)
	if err != nil {
		return nil, err
	}
	return s.Decode(base)
}
