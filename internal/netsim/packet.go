package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Packet framing: the packet layer segments the byte stream into MTU-sized
// payloads, each prefixed by a fixed 16-byte little-endian header:
//
//	[0]     magic (0xD7)
//	[1]     kind: 0 data, 1 parity
//	[2:6]   seq    — data: stream sequence number (from 1); parity: the
//	                 sequence number of the group's first data packet
//	[6:10]  group  — FEC group id (from 1; 0 = ungrouped data)
//	[10]    gidx   — data: index within the group; parity: 0
//	[11]    gsize  — number of data packets in the group (0 = ungrouped)
//	[12:14] lenXor — parity only: XOR of the group's payload lengths,
//	                 recovers the length of a missing member
//	[14:16] plen   — payload length in bytes
//
// A parity packet's payload is the byte-wise XOR of its group's data
// payloads (shorter members zero-padded to the longest), so any single
// missing member is recoverable from the rest plus the parity.

const (
	// PacketMagic marks the first byte of every packet header.
	PacketMagic = 0xD7
	// PacketHeaderLen is the fixed header size in bytes.
	PacketHeaderLen = 16
	// KindData and KindParity are the packet kinds on the wire.
	KindData   = 0
	KindParity = 1
	// DefaultMTU is the default payload capacity per packet (bytes),
	// roughly an Ethernet MTU minus IP/UDP/header overhead.
	DefaultMTU = 1200
	// MaxPacketPayload is the largest encodable payload (plen is 16-bit).
	MaxPacketPayload = 1<<16 - 1
	// MaxFECGroup is the largest supported parity group (gsize is 8-bit,
	// and gidx must stay below it).
	MaxFECGroup = 255
)

// Packet is one decoded packet-layer frame.
type Packet struct {
	Kind       byte
	Seq        uint32
	Group      uint32
	GroupIndex byte
	GroupSize  byte
	LenXor     uint16
	Payload    []byte
}

// ErrBadPacket reports a malformed packet header.
var ErrBadPacket = errors.New("netsim: malformed packet")

// AppendPacket appends the encoded packet to dst and returns the result.
func AppendPacket(dst []byte, p Packet) []byte {
	if len(p.Payload) > MaxPacketPayload {
		panic(fmt.Sprintf("netsim: packet payload %d exceeds %d", len(p.Payload), MaxPacketPayload))
	}
	var h [PacketHeaderLen]byte
	h[0] = PacketMagic
	h[1] = p.Kind
	binary.LittleEndian.PutUint32(h[2:6], p.Seq)
	binary.LittleEndian.PutUint32(h[6:10], p.Group)
	h[10] = p.GroupIndex
	h[11] = p.GroupSize
	binary.LittleEndian.PutUint16(h[12:14], p.LenXor)
	binary.LittleEndian.PutUint16(h[14:16], uint16(len(p.Payload)))
	dst = append(dst, h[:]...)
	return append(dst, p.Payload...)
}

// validatePacket enforces the header invariants ReadPacket checks.
func validatePacket(p Packet) error {
	switch p.Kind {
	case KindData:
		if p.Seq == 0 {
			return fmt.Errorf("%w: data packet with seq 0", ErrBadPacket)
		}
		if p.GroupSize > 0 && (p.GroupIndex >= p.GroupSize || p.Group == 0) {
			return fmt.Errorf("%w: bad group fields %d/%d in group %d", ErrBadPacket, p.GroupIndex, p.GroupSize, p.Group)
		}
		if p.GroupSize == 0 && (p.Group != 0 || p.GroupIndex != 0) {
			return fmt.Errorf("%w: ungrouped data packet with group fields set", ErrBadPacket)
		}
		if p.LenXor != 0 {
			return fmt.Errorf("%w: data packet with lenXor set", ErrBadPacket)
		}
	case KindParity:
		if p.GroupSize == 0 || p.Group == 0 {
			return fmt.Errorf("%w: parity packet with empty group", ErrBadPacket)
		}
		if p.Seq == 0 {
			return fmt.Errorf("%w: parity packet without group start seq", ErrBadPacket)
		}
		if p.GroupIndex != 0 {
			return fmt.Errorf("%w: parity packet with data fields set", ErrBadPacket)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadPacket, p.Kind)
	}
	return nil
}

// ReadPacket reads exactly one packet from r; the payload is its own
// allocation.
func ReadPacket(r io.Reader) (Packet, error) {
	var h [PacketHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Packet{}, err
	}
	if h[0] != PacketMagic {
		return Packet{}, fmt.Errorf("%w: bad magic 0x%02x", ErrBadPacket, h[0])
	}
	p := Packet{
		Kind:       h[1],
		Seq:        binary.LittleEndian.Uint32(h[2:6]),
		Group:      binary.LittleEndian.Uint32(h[6:10]),
		GroupIndex: h[10],
		GroupSize:  h[11],
		LenXor:     binary.LittleEndian.Uint16(h[12:14]),
	}
	if err := validatePacket(p); err != nil {
		return Packet{}, err
	}
	plen := int(binary.LittleEndian.Uint16(h[14:16]))
	if plen > 0 {
		p.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, p.Payload); err != nil {
			return Packet{}, err
		}
	}
	return p, nil
}

// ParityPayload builds the XOR parity for a group of data payloads: the
// byte-wise XOR padded to the longest member, plus the XOR of the member
// lengths (lenXor) so a missing member's length is recoverable.
func ParityPayload(members [][]byte) (payload []byte, lenXor uint16) {
	maxLen := 0
	for _, m := range members {
		lenXor ^= uint16(len(m))
		if len(m) > maxLen {
			maxLen = len(m)
		}
	}
	payload = make([]byte, maxLen)
	for _, m := range members {
		for i, b := range m {
			payload[i] ^= b
		}
	}
	return payload, lenXor
}

// RecoverFromParity reconstructs the single missing member of a parity
// group. members holds the group's data payloads in group-index order with
// exactly one nil entry (the lost packet); parity and lenXor come from the
// group's parity packet.
func RecoverFromParity(members [][]byte, parity []byte, lenXor uint16) ([]byte, error) {
	missing := -1
	for i, m := range members {
		if m != nil {
			lenXor ^= uint16(len(m))
			continue
		}
		if missing >= 0 {
			return nil, fmt.Errorf("%w: more than one member missing", ErrBadPacket)
		}
		missing = i
	}
	if missing < 0 {
		return nil, fmt.Errorf("%w: no member missing", ErrBadPacket)
	}
	want := int(lenXor)
	if want > len(parity) {
		return nil, fmt.Errorf("%w: recovered length %d exceeds parity %d", ErrBadPacket, want, len(parity))
	}
	out := make([]byte, want)
	copy(out, parity[:want])
	for _, m := range members {
		if m == nil {
			continue
		}
		n := len(m)
		if n > want {
			n = want
		}
		for i := 0; i < n; i++ {
			out[i] ^= m[i]
		}
	}
	return out, nil
}
