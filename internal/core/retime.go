package core

import (
	"time"

	"repro/internal/netsim"
)

// RetimeConfig re-evaluates a recorded key-frame schedule under different
// network conditions.
type RetimeConfig struct {
	Cfg         Config
	Link        netsim.Link
	Latencies   ComponentLatencies
	Concurrency Concurrency
}

// strideClock is the virtual time a cadence runs on: the clock and when the
// pending update lands. Simulate and Retime both drive it, so there is one
// copy of what a key frame and a wait cost.
type strideClock struct {
	lat         ComponentLatencies
	link        netsim.Link
	concurrency Concurrency
	diffBytes   int // HD-equivalent size of one student update

	now     time.Duration
	arrives time.Duration // when the pending update lands
}

// newStrideClock returns a clock at virtual time zero. Zero latencies fall
// back to the paper's measurements for the distillation mode. An update is
// the paper's measured 0.395 MB partial / 1.846 MB full (Table 4): our own
// student's trainable fraction (≈ 23%) is close to the paper's 21.4%, so
// this keeps byte accounting in the paper's units without per-run drift.
func newStrideClock(link netsim.Link, lat ComponentLatencies, conc Concurrency, partial bool) *strideClock {
	if lat == (ComponentLatencies{}) {
		lat = PaperLatencies(partial)
	}
	diffBytes := netsim.HDStudentBytes
	if partial {
		diffBytes = netsim.HDPartialDiffBytes
	}
	return &strideClock{lat: lat, link: link, concurrency: conc, diffBytes: diffBytes}
}

// roundTrip is a key frame's trip: upload, teacher inference, steps
// distillation steps, update download.
func (c *strideClock) roundTrip(steps int) time.Duration {
	return c.link.TransferTime(netsim.HDFrameBytes) + c.lat.TeacherInference +
		time.Duration(steps)*c.lat.DistillStep + c.link.TransferTime(c.diffBytes)
}

// keyFrame sends a key frame whose update is trip away (Algorithm 4 lines
// 7–8). Without concurrency the client stalls for the whole trip before
// continuing (eq. 2 upper bound).
func (c *strideClock) keyFrame(trip time.Duration) {
	if c.concurrency == NoConcurrency {
		c.now += trip
		trip = 0
	}
	c.arrives = c.now + trip
}

// frame infers one frame on the device, blocks until the last key frame's
// update lands when the cadence says wait, and reports whether it has
// landed.
func (c *strideClock) frame(wait bool) (landed bool) {
	c.now += c.lat.StudentInference
	if wait {
		c.now = max(c.now, c.arrives)
	}
	return c.now >= c.arrives
}

// Retime replays a schedule produced by Simulate and returns the virtual
// execution time for the given link/latency configuration. The schedule
// itself is bandwidth-invariant (see SimResult.Schedule); only the blocking
// waits at MIN_STRIDE change. frames is the total frame count of the run.
func Retime(rc RetimeConfig, schedule []KeyFrameEvent, frames int, partial bool) time.Duration {
	clk := newStrideClock(rc.Link, rc.Latencies, rc.Concurrency, partial)
	cad := newCadence(rc.Cfg, nil)
	for i := 0; i < frames; i++ {
		if len(schedule) > 0 && schedule[0].FrameIndex == i {
			clk.keyFrame(clk.roundTrip(schedule[0].Steps))
			cad.sent()
			schedule = schedule[1:]
		}
		if clk.frame(cad.inferred()) {
			cad.settled()
		}
	}
	return clk.now
}

// RetimeFPS returns frames/s for a retimed schedule.
func RetimeFPS(rc RetimeConfig, schedule []KeyFrameEvent, frames int, partial bool) float64 {
	d := Retime(rc, schedule, frames, partial)
	if d <= 0 {
		return 0
	}
	return float64(frames) / d.Seconds()
}

// NaiveOverhead is the fixed client-side per-frame cost (JPEG encode, mask
// decode) of naive offloading, calibrated so naive throughput lands near
// the paper's measured 2.09 FPS at 80 Mbps (§6.1: the pure transfer +
// teacher time accounts for ~0.41 s of the measured 0.478 s per frame).
const NaiveOverhead = 65 * time.Millisecond

// NaiveTime returns the virtual execution time of naive offloading for the
// given frame count and link — every frame pays the full synchronous round
// trip (upload, teacher inference, download) plus NaiveOverhead.
func NaiveTime(link netsim.Link, lat ComponentLatencies, frames int) time.Duration {
	per := link.TransferTime(netsim.HDFrameBytes) + lat.TeacherInference +
		link.TransferTime(netsim.HDNaiveResponseBytes) + NaiveOverhead
	return time.Duration(frames) * per
}

// NaiveFPS returns naive offloading throughput for the link.
func NaiveFPS(link netsim.Link, lat ComponentLatencies) float64 {
	d := NaiveTime(link, lat, 1)
	if d <= 0 {
		return 0
	}
	return 1 / d.Seconds()
}
