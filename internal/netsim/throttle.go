package netsim

import (
	"math"
	"net"
	"sync"
	"time"
)

// burst is the token bucket's size in bytes, and the largest chunk moved
// per bucket visit; one MTU-ish chunk keeps latency realistic.
const burst = 32 * 1024

// ThrottledConn wraps a net.Conn and limits sustained throughput in each
// direction to the bandwidth its Trace gives for the link's age, using a
// token bucket. It is how the real TCP path reproduces the paper's §6.4
// bandwidth sweep (90 … 8 Mbps) without kernel traffic shaping — one fixed
// rate (ConstantTrace) or the sweep as a single connection lives it.
type ThrottledConn struct {
	net.Conn
	read  tokenBucket
	write tokenBucket
}

// NewThrottledConn wraps conn in a link that follows tr from now on.
func NewThrottledConn(conn net.Conn, tr *Trace) *ThrottledConn {
	start := time.Now()
	return &ThrottledConn{
		Conn:  conn,
		read:  tokenBucket{trace: tr, start: start, tokens: burst},
		write: tokenBucket{trace: tr, start: start, tokens: burst},
	}
}

// Read implements net.Conn with download throttling.
func (c *ThrottledConn) Read(p []byte) (int, error) {
	if len(p) > burst {
		p = p[:burst]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.read.wait(n)
	}
	return n, err
}

// Write implements net.Conn with upload throttling.
func (c *ThrottledConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		chunk := min(len(p)-written, burst)
		c.write.wait(chunk)
		n, err := c.Conn.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// tokenBucket is a blocking byte-rate limiter whose refill rate is a pure
// function of the link's age: it holds no rate of its own, so a trace step
// needs nobody to deliver it. The shaper touches the clock through two
// functions only: time.Now (the link's start, then each visit's age) and
// time.Sleep.
type tokenBucket struct {
	mu     sync.Mutex
	trace  *Trace
	start  time.Time     // link age 0
	last   time.Duration // link age of the last accrual
	tokens float64
}

// wait consumes n tokens, first accruing what the trace carried since the
// last visit. The bucket may go into debt (tokens < 0); the caller sleeps
// the debt off in one go, for exactly as long as the trace takes to carry
// it from here — rate changes during the sleep included.
func (b *tokenBucket) wait(n int) {
	b.mu.Lock()
	age := time.Now().Sub(b.start)
	b.tokens = min(b.tokens+b.trace.Capacity(b.last, age), burst) - float64(n)
	b.last = age
	debt := -b.tokens
	b.mu.Unlock()
	if debt > 0 {
		time.Sleep(b.trace.TransferTime(age, int(math.Ceil(debt))))
	}
}
