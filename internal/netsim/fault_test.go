package netsim

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns two connected TCP conns on loopback (real sockets, so a
// close propagates to the peer like a genuine drop).
func tcpPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestFaultyConnCutAtWriteOffset(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, Fault{AfterBytes: 10, Dir: Up})

	// Read the peer side concurrently so the write is not back-pressured.
	got := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(b)
		got <- buf
	}()

	n, err := fc.Write(make([]byte, 25))
	if !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("write error %v, want ErrInjectedCut", err)
	}
	if n != 10 {
		t.Fatalf("wrote %d bytes before the cut, want exactly 10", n)
	}
	// The peer observes the drop and exactly the scripted prefix.
	if buf := <-got; len(buf) != 10 {
		t.Fatalf("peer received %d bytes, want 10", len(buf))
	}
	// The conn stays dead.
	if _, err := fc.Write([]byte{1}); !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("post-cut write error %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("post-cut read error %v", err)
	}
}

func TestFaultyConnCutAtReadOffset(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, Fault{AfterBytes: 6, Dir: Down})
	if _, err := b.Write(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	total := 0
	for {
		n, err := fc.Read(buf)
		total += n
		if err != nil {
			if !errors.Is(err, ErrInjectedCut) {
				t.Fatalf("read error %v, want ErrInjectedCut", err)
			}
			break
		}
	}
	if total != 6 {
		t.Fatalf("read %d bytes before the cut, want exactly 6", total)
	}
	// The peer eventually observes the closed conn.
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := b.Read(buf); err == nil {
		t.Fatal("peer read should fail after the cut")
	}
}

func TestFaultyConnStall(t *testing.T) {
	a, b := tcpPair(t)
	const stall = 80 * time.Millisecond
	fc := NewFaultyConn(a, Fault{AfterBytes: 4, Dir: Up, Stall: stall})
	go io.Copy(io.Discard, b)

	start := time.Now()
	n, err := fc.Write(make([]byte, 16))
	if err != nil || n != 16 {
		t.Fatalf("write after stall: n=%d err=%v", n, err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("write took %v, want at least the %v stall", elapsed, stall)
	}
}

// Per-direction scripts are independent: an Up cut does not fire on reads
// until the write path reaches it.
func TestFaultyConnDirectionsIndependent(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, Fault{AfterBytes: 1000, Dir: Up})
	if _, err := b.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatalf("read should pass untouched: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("payload corrupted: %q", buf)
	}
}

// Multiple faults in one direction fire in order at cumulative offsets.
func TestFaultyConnSequencedFaults(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a,
		Fault{AfterBytes: 3, Dir: Up, Stall: 10 * time.Millisecond},
		Fault{AfterBytes: 8, Dir: Up},
	)
	go io.Copy(io.Discard, b)
	n, err := fc.Write(make([]byte, 32))
	if !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("err %v, want cut", err)
	}
	if n != 8 {
		t.Fatalf("wrote %d, want 8 (stall at 3, cut at 8)", n)
	}
}

// A frame-relative cut counts from the start of the k-th message of one
// type, whatever the sizes of the messages before it — and however the
// reader's buffer straddles headers and bodies.
func TestFaultyConnCutInsideKthFrame(t *testing.T) {
	const diff, other = 4, 9
	frame := func(typ byte, body int) []byte {
		b := make([]byte, frameHeader+body)
		b[0] = typ
		binary.LittleEndian.PutUint32(b[1:], uint32(body))
		return b
	}
	var stream []byte
	for _, f := range [][]byte{frame(other, 0), frame(diff, 700), frame(other, 33), frame(diff, 40), frame(diff, 900)} {
		stream = append(stream, f...)
	}
	// 30 bytes into the third diff: everything before it, its header, 25
	// bytes of its body.
	want := len(stream) - (frameHeader + 900) + 30
	for _, readSize := range []int{1, 7, 64, 4096} {
		a, b := tcpPair(t)
		fc := NewFaultyConn(a, Fault{Dir: Down, Frame: 3, FrameType: diff, AfterBytes: 30})
		if _, err := b.Write(stream); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, readSize)
		total := 0
		for {
			n, err := fc.Read(buf)
			total += n
			if err != nil {
				if !errors.Is(err, ErrInjectedCut) {
					t.Fatalf("read size %d: error %v, want ErrInjectedCut", readSize, err)
				}
				break
			}
		}
		if total != want {
			t.Fatalf("read size %d: %d bytes before the cut, want %d", readSize, total, want)
		}
	}
}
