package netsim

import (
	"bytes"
	"testing"
)

// FuzzDecodePacket hardens the packet-layer framing decoder the same way
// the wire-protocol and codec decoders are hardened: arbitrary bytes must
// never panic, and anything that decodes must re-encode to the same bytes
// and satisfy the header invariants.
func FuzzDecodePacket(f *testing.F) {
	seeds := []Packet{
		{Kind: KindData, Seq: 1, Payload: []byte("payload")},
		{Kind: KindData, Seq: 2, Payload: nil},
		{Kind: KindData, Seq: 9, Group: 4, GroupIndex: 1, GroupSize: 4, Payload: bytes.Repeat([]byte{7}, 64)},
		{Kind: KindParity, Seq: 8, Group: 4, GroupSize: 4, LenXor: 64 ^ 7, Payload: bytes.Repeat([]byte{9}, 64)},
	}
	for _, p := range seeds {
		f.Add(AppendPacket(nil, p))
	}
	f.Add([]byte{PacketMagic})
	f.Add(bytes.Repeat([]byte{0xff}, PacketHeaderLen+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		p, err := ReadPacket(r)
		if err != nil {
			return
		}
		n := len(data) - r.Len()
		if n < PacketHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if verr := validatePacket(p); verr != nil {
			t.Fatalf("decoded packet violates invariants: %v", verr)
		}
		re := AppendPacket(nil, p)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: %x != %x", re, data[:n])
		}
	})
}
