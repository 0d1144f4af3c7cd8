package netsim

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// pipePair builds two PacketConns over a TCP loopback pair (the packet
// layer assumes a buffered transport underneath: trailing parity packets
// the receiver never needs must not block the writer, as they would on an
// unbuffered net.Pipe).
func pipePair(t *testing.T, aOpts, bOpts PacketOptions) (a, b *PacketConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	ac, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got := <-acc
	if got.err != nil {
		t.Fatal(got.err)
	}
	a = NewPacketConn(ac, aOpts)
	b = NewPacketConn(got.c, bOpts)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// sendRecv writes msg on src while reading len(msg) bytes from dst.
func sendRecv(t *testing.T, src, dst *PacketConn, msg []byte) []byte {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := src.Write(msg)
		errc <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(dst, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	return got
}

func TestPacketConnLossless(t *testing.T) {
	a, b := pipePair(t, PacketOptions{}, PacketOptions{})
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 100, DefaultMTU, DefaultMTU + 1, 5 * DefaultMTU, 64 * 1024} {
		msg := make([]byte, size)
		rng.Read(msg)
		if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
			t.Fatalf("size %d: corrupted payload", size)
		}
	}
}

func TestPacketConnFECRecoversSingleLoss(t *testing.T) {
	// ~5% uniform loss with 4-packet parity groups: most groups lose at
	// most one packet and recover without a retransmit. Keep RTO tiny so
	// the unlucky groups don't slow the test.
	loss := NewUniformLoss(0.05, 42)
	a, b := pipePair(t,
		PacketOptions{Loss: loss, FECGroup: 4, RTO: time.Millisecond},
		PacketOptions{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		msg := make([]byte, 3*DefaultMTU+17)
		rng.Read(msg)
		if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
			t.Fatalf("round %d: corrupted payload", i)
		}
	}
	obs := a.Observation()
	if obs.PacketsLost == 0 {
		t.Fatal("loss model never fired; test is vacuous")
	}
	if obs.Recovered == 0 {
		t.Fatalf("no FEC recoveries across %d losses", obs.PacketsLost)
	}
}

func TestPacketConnRetransmitWithoutFEC(t *testing.T) {
	loss := NewUniformLoss(0.10, 7)
	a, b := pipePair(t,
		PacketOptions{Loss: loss, RTO: time.Millisecond},
		PacketOptions{})
	rng := rand.New(rand.NewSource(5))
	msg := make([]byte, 40*DefaultMTU)
	rng.Read(msg)
	if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
		t.Fatal("corrupted payload")
	}
	obs := a.Observation()
	if obs.PacketsLost == 0 || obs.Retransmits != obs.PacketsLost {
		t.Fatalf("lost %d, retransmitted %d; want equal and nonzero", obs.PacketsLost, obs.Retransmits)
	}
}

func TestPacketConnReorder(t *testing.T) {
	a, b := pipePair(t,
		PacketOptions{Impair: &Impairment{ReorderProb: 0.3, Seed: 9}},
		PacketOptions{})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		msg := make([]byte, 20*DefaultMTU+i)
		rng.Read(msg)
		if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
			t.Fatalf("round %d: reordered stream not reassembled", i)
		}
	}
}

func TestPacketConnSetFECGroupMidStream(t *testing.T) {
	a, b := pipePair(t, PacketOptions{FECGroup: 8}, PacketOptions{})
	msg := bytes.Repeat([]byte{0xee}, 10*DefaultMTU)
	if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
		t.Fatal("corrupted payload before switch")
	}
	a.SetFECGroup(2)
	if k := a.fecSize.Load(); k != 2 {
		t.Fatalf("FEC group = %d after SetFECGroup(2)", k)
	}
	if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
		t.Fatal("corrupted payload after switch")
	}
	a.SetFECGroup(-1)
	if k := a.fecSize.Load(); k != 0 {
		t.Fatalf("FEC group = %d, want 0 (disabled)", k)
	}
	if got := sendRecv(t, a, b, msg); !bytes.Equal(got, msg) {
		t.Fatal("corrupted payload with FEC disabled")
	}
}

func TestPacketConnBidirectional(t *testing.T) {
	a, b := pipePair(t,
		PacketOptions{Loss: NewUniformLoss(0.03, 11), FECGroup: 4, RTO: time.Millisecond},
		PacketOptions{Loss: NewUniformLoss(0.03, 12), FECGroup: 4, RTO: time.Millisecond})
	up := bytes.Repeat([]byte{0x11}, 7*DefaultMTU)
	down := bytes.Repeat([]byte{0x22}, 9*DefaultMTU)
	for i := 0; i < 5; i++ {
		if got := sendRecv(t, a, b, up); !bytes.Equal(got, up) {
			t.Fatalf("round %d: a→b corrupted", i)
		}
		if got := sendRecv(t, b, a, down); !bytes.Equal(got, down) {
			t.Fatalf("round %d: b→a corrupted", i)
		}
	}
}

func TestPacketConnTotals(t *testing.T) {
	var tot LinkTotals
	a, b := pipePair(t,
		PacketOptions{Loss: NewUniformLoss(0.05, 13), FECGroup: 4, RTO: time.Millisecond, Totals: &tot},
		PacketOptions{})
	msg := bytes.Repeat([]byte{0x33}, 30*DefaultMTU)
	sendRecv(t, a, b, msg)
	if got := tot.PayloadBytes.Load(); got != int64(len(msg)) {
		t.Fatalf("PayloadBytes = %d, want %d", got, len(msg))
	}
	if tot.Sent.Load() != 30 {
		t.Fatalf("Sent = %d, want 30", tot.Sent.Load())
	}
	if tot.Parity.Load() == 0 {
		t.Fatal("no parity packets accounted")
	}
	if tot.WireBytes.Load() <= tot.PayloadBytes.Load() {
		t.Fatalf("WireBytes %d should exceed payload %d (headers+parity)", tot.WireBytes.Load(), tot.PayloadBytes.Load())
	}
}
