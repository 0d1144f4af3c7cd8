package netsim

import (
	"bytes"
	"errors"
	"testing"
)

func TestPacketRoundTrip(t *testing.T) {
	pkts := []Packet{
		{Kind: KindData, Seq: 1, Payload: []byte("hello")},
		{Kind: KindData, Seq: 7, Group: 3, GroupIndex: 2, GroupSize: 4, Payload: bytes.Repeat([]byte{0xab}, DefaultMTU)},
		{Kind: KindData, Seq: 9, Payload: nil},
		{Kind: KindParity, Seq: 4, Group: 3, GroupSize: 4, LenXor: 1200 ^ 5, Payload: []byte{1, 2, 3}},
	}
	var wire []byte
	for _, p := range pkts {
		wire = AppendPacket(wire, p)
	}
	r := bytes.NewReader(wire)
	for i, want := range pkts {
		got, err := ReadPacket(r)
		if err != nil {
			t.Fatalf("packet %d: read: %v", i, err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Group != want.Group ||
			got.GroupIndex != want.GroupIndex || got.GroupSize != want.GroupSize ||
			got.LenXor != want.LenXor || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("packet %d: got %+v want %+v", i, got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d of %d wire bytes left unread", r.Len(), len(wire))
	}
}

func TestDecodePacketRejectsMalformed(t *testing.T) {
	good := AppendPacket(nil, Packet{Kind: KindData, Seq: 5, Payload: []byte("ok")})
	cases := map[string]func([]byte) []byte{
		"short header":  func(b []byte) []byte { return b[:PacketHeaderLen-1] },
		"bad magic":     func(b []byte) []byte { b[0] = 0x00; return b },
		"bad kind":      func(b []byte) []byte { b[1] = 9; return b },
		"zero seq":      func(b []byte) []byte { b[2], b[3], b[4], b[5] = 0, 0, 0, 0; return b },
		"gidx >= gsize": func(b []byte) []byte { b[6] = 1; b[10] = 3; b[11] = 3; return b },
		"lenXor on data": func(b []byte) []byte {
			b[12] = 1
			return b
		},
		"truncated payload": func(b []byte) []byte { return b[:len(b)-1] },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), good...))
		if _, err := ReadPacket(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decode accepted malformed packet", name)
		} else if !errors.Is(err, ErrBadPacket) && name != "truncated payload" && name != "short header" {
			t.Errorf("%s: err = %v, want ErrBadPacket", name, err)
		}
	}
}

func TestParityRecoversEachMember(t *testing.T) {
	members := [][]byte{
		[]byte("the first member"),
		[]byte("2nd"),
		bytes.Repeat([]byte{0x5c}, 1200),
		{},
	}
	parity, lenXor := ParityPayload(members)
	for missing := range members {
		got := make([][]byte, len(members))
		copy(got, members)
		got[missing] = nil
		rec, err := RecoverFromParity(got, parity, lenXor)
		if err != nil {
			t.Fatalf("member %d: recover: %v", missing, err)
		}
		if !bytes.Equal(rec, members[missing]) {
			t.Fatalf("member %d: recovered %d bytes, want %d", missing, len(rec), len(members[missing]))
		}
	}
	// Two missing members is unrecoverable.
	got := make([][]byte, len(members))
	copy(got, members)
	got[0], got[1] = nil, nil
	if _, err := RecoverFromParity(got, parity, lenXor); err == nil {
		t.Fatal("recover accepted two missing members")
	}
	// Nothing missing is an error too.
	if _, err := RecoverFromParity(members, parity, lenXor); err == nil {
		t.Fatal("recover accepted a complete group")
	}
}
