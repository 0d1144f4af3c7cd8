package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Paper data sizes (Table 4): a 720p key frame is 2.637 MB on the wire, the
// naive teacher response is 0.879 MB, the full student is 1.846 MB and the
// partial update 0.395 MB. Our frames are DefaultW×DefaultH; HDScale
// converts locally measured byte counts into HD-equivalent bytes so the
// traffic model matches the paper's regime.
const (
	// HDFrameBytes is the paper's per-key-frame upload (2.637 MB).
	HDFrameBytes = 2_637_000
	// HDNaiveResponseBytes is the paper's per-frame teacher response size
	// (0.879 MB).
	HDNaiveResponseBytes = 879_000
	// HDStudentBytes is the paper's full student, the update a full-mode
	// key frame returns (1.846 MB).
	HDStudentBytes = 1_846_000
	// HDPartialDiffBytes is the paper's partial update (0.395 MB).
	HDPartialDiffBytes = 395_000
)

// Mbps expresses link bandwidth in megabits per second (10^6 bits/s, as
// used by the paper's 80 Mbps Wi-Fi assumption).
type Mbps float64

// BytesPerSecond converts to bytes/s.
func (m Mbps) BytesPerSecond() float64 { return float64(m) * 1e6 / 8 }

// Link models a symmetric bandwidth-limited, fixed-latency connection.
type Link struct {
	Bandwidth Mbps
	// RTTBase is the propagation delay applied to every transfer on top of
	// the serialisation delay (size / bandwidth).
	RTTBase time.Duration
}

// DefaultLink matches the paper's experiment setup: 80 Mbps up/down with a
// small propagation delay.
func DefaultLink() Link { return Link{Bandwidth: 80, RTTBase: 5 * time.Millisecond} }

// TransferTime returns how long size bytes take to move across the link.
func (l Link) TransferTime(size int) time.Duration {
	if l.Bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: non-positive bandwidth %v", l.Bandwidth))
	}
	sec := float64(size) / l.Bandwidth.BytesPerSecond()
	return l.RTTBase + time.Duration(sec*float64(time.Second))
}

// Accountant tallies bytes moved in each direction. It is safe for
// concurrent use (the TCP path updates it from multiple goroutines).
type Accountant struct {
	mu       sync.Mutex
	toServer int64
	toClient int64
}

// AddToServer records an upload of size bytes.
func (a *Accountant) AddToServer(size int) {
	a.mu.Lock()
	a.toServer += int64(size)
	a.mu.Unlock()
}

// AddToClient records a download of size bytes.
func (a *Accountant) AddToClient(size int) {
	a.mu.Lock()
	a.toClient += int64(size)
	a.mu.Unlock()
}

// Totals returns bytes moved (toServer, toClient).
func (a *Accountant) Totals() (toServer, toClient int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.toServer, a.toClient
}

// HDScale converts locally measured wire bytes into HD-equivalent bytes:
// our reduced-resolution frames nominally cost localKeyFrameBytes (their
// uncompressed float32 size) where the paper's 720p key frame costs
// HDFrameBytes, so local byte counts are scaled by that ratio to stay
// comparable to Tables 4–5.
func HDScale(localBytes int64, localKeyFrameBytes int) float64 {
	if localKeyFrameBytes <= 0 {
		return 0
	}
	return float64(localBytes) * float64(HDFrameBytes) / float64(localKeyFrameBytes)
}

// TrafficMbps converts total bytes over a wall-clock duration to Mbps.
func TrafficMbps(totalBytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(totalBytes) * 8 / 1e6 / elapsed.Seconds()
}

// MB converts bytes to the paper's megabyte unit (decimal: 1 MB = 10⁶
// bytes, so Table 4's 2.637 MB frame renders exactly).
func MB(bytes int) float64 { return float64(bytes) / 1e6 }
