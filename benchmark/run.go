package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// evalEvery samples the client-side student-vs-teacher comparison.
const evalEvery = 8

// pacedSource is the benchmark's video.Source: it hands the system frames
// and owns frame latency and pacing. Next for frame i+1 closes frame i, so
// a frame's latency runs from when it was due until the client asks for
// the next one. Closed loop: a frame is due when the previous one
// completes. Open loop: frame i is due at start + i/rate whatever the
// client is doing, so a stall is charged to every frame it delays.
type pacedSource struct {
	gen    *video.Generator
	base   int     // client number in the index's high bits
	rate   float64 // frames per second; 0 = closed loop
	region *region

	n       int
	start   time.Time
	due     time.Time
	latency []float64 // ms, one per closed frame
	maxLate time.Duration
	genTime time.Duration
}

func (s *pacedSource) Next() video.Frame {
	now := time.Now()
	if s.n == 0 {
		s.region.begin(now)
		s.start, s.due = now, now
	} else {
		s.latency = append(s.latency, ms(now.Sub(s.due)))
		s.due = now
		if s.rate > 0 {
			s.due = s.start.Add(time.Duration(float64(s.n) / s.rate * float64(time.Second)))
			if early := s.due.Sub(now); early > 0 {
				time.Sleep(early)
			} else if -early > s.maxLate {
				s.maxLate = -early
			}
		}
	}
	t0 := time.Now()
	f := s.gen.Next()
	s.genTime += time.Since(t0)
	f.Index = s.base | s.n
	s.n++
	return f
}

// region marks the measured part of a pass: from the first frame any
// client asks for until every client has returned.
type region struct {
	once  sync.Once
	start time.Time
	cpu   time.Duration
}

func (r *region) begin(now time.Time) {
	r.once.Do(func() {
		r.start = now
		r.cpu = cpuTime()
	})
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports kB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pass is everything one run of a workload produced.
type pass struct {
	clients   int
	frames    int // per client
	setup     time.Duration
	wall      time.Duration
	cpu       time.Duration
	latency   []float64 // ms, all clients
	rtt       []float64 // ms, all clients
	keyFrames int       // key frames sent: the attempted operations
	failedOps int
	problems  []string // failed correctness checks

	miou       float64
	upBytes    int64
	downBytes  int64
	strideMean float64
	maxLateMs  float64
	videoMs    float64 // mean generator time per frame

	reconnects, replays, fullResends, staleFrames int
	recoveryMs                                    float64

	stats    serve.Stats // folded over shards
	served   []int64     // sessions served per shard
	routed   int64
	handoffs int64
	sheds    int64
	up, down netsim.LinkTotals

	spans       []span  // traced pass only
	handshakeMs float64 // traced pass only: Hello received → checkpoint sent
}

func (p *pass) totalFrames() float64 { return float64(p.clients * p.frames) }

// fps is frames completed per second of the measured region, all clients.
func (p *pass) fps() float64 { return p.totalFrames() / p.wall.Seconds() }

// blockedPct is the share of frames, in percent, slower than 5 × the median:
// the frames that waited for something other than their own inference.
func (p *pass) blockedPct() float64 {
	blocked, slow := 0, 5*stats.Median(p.latency)
	for _, l := range p.latency {
		if l > slow {
			blocked++
		}
	}
	return 100 * float64(blocked) / float64(len(p.latency))
}

// packetCounts are the packet-tier counters summed over both directions.
func (p *pass) packetCounts() (sent, lost, recovered, retransmits int64) {
	return p.up.Sent.Load() + p.down.Sent.Load(),
		p.up.Lost.Load() + p.down.Lost.Load(),
		p.up.Recovered.Load() + p.down.Recovered.Load(),
		p.up.Retransmits.Load() + p.down.Retransmits.Load()
}

func (p *pass) failf(format string, a ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, a...))
}

// runPass plays workload w once: builds the serving tier, runs every client
// to its last frame, tears the tier down and checks the outcome. began is
// when set-up started; traced adds server-side conn taps and a teacher
// wrapper to the same set-up.
func runPass(w workload, seed int64, frames int, traced bool, began time.Time) (*pass, error) {
	cfg := core.DefaultConfig()
	base, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		return nil, fmt.Errorf("pre-training: %w", err)
	}
	p := &pass{clients: w.clients, frames: frames}
	maxKF := frames/cfg.MinStride + 2

	// Session IDs: on a router, client c gets the first ID from c+1 up that
	// hashes to shard c, so each shard serves exactly one session.
	ids := make([]uint64, w.clients)
	for c := range ids {
		ids[c] = uint64(c + 1)
		for w.shards > 0 && fabric.ShardFor(ids[c], w.shards) != c {
			ids[c]++
		}
	}
	var tr *trace
	if traced {
		tr = newTrace(ids, maxKF)
	}

	newTeacher := func(shard int) teacher.Teacher {
		var t teacher.BatchInferrer = teacher.NewOracle(streamSeed + 1 + int64(shard))
		if w.costed {
			t = newCostedOracle(streamSeed + 1 + int64(shard))
		}
		if traced {
			t = &timedTeacher{inner: t, tr: tr}
		}
		return t
	}
	shardOpts := func(shard int) serve.Options {
		return serve.Options{
			Cfg: cfg, Base: base, Teacher: newTeacher(shard),
			LinkPolicy: w.linkPolicy, EnvelopeCodec: w.envelope,
		}
	}
	var handle func(transport.Conn) error
	var mgr *serve.Manager
	var router *fabric.Router
	if w.shards > 0 {
		router, err = fabric.NewRouter(fabric.Options{Shards: w.shards, Shard: shardOpts})
		if err != nil {
			return nil, err
		}
		defer router.Close()
		handle = router.Handle
	} else {
		mgr, err = serve.NewManager(shardOpts(0))
		if err != nil {
			return nil, err
		}
		defer mgr.Close()
		handle = mgr.Handle
	}

	acct := &netsim.Accountant{}
	ln, err := transport.Listen("127.0.0.1:0", w.bandwidth, acct)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	packetOpts := func(seed int64, totals *netsim.LinkTotals) (netsim.PacketOptions, error) {
		loss, err := netsim.LossModelByName(w.lossModel, seed, nil)
		return netsim.PacketOptions{FECGroup: w.fecGroup, Loss: loss, Totals: totals}, err
	}
	if w.lossModel != "" {
		if _, err := packetOpts(seed, nil); err != nil {
			return nil, err
		}
		var accepted atomic.Int64
		ln.SetPacketWrap(func() *netsim.PacketOptions {
			// The spec parsed a line ago; only the seed differs.
			po, _ := packetOpts(seed+0xD0000+accepted.Add(1)*977, &p.down)
			return &po
		})
	}

	// The benchmark's own accept loop, so it can wrap what it hands in.
	var handlers sync.WaitGroup
	var handleMu sync.Mutex
	var handleErrs []error
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			tc, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				defer tc.Close()
				var conn transport.Conn = tc
				if traced {
					conn = &serverTap{inner: tc, tr: tr}
				}
				if err := handle(conn); err != nil {
					handleMu.Lock()
					handleErrs = append(handleErrs, err)
					handleMu.Unlock()
				}
			}()
		}
	}()

	reg := &region{}
	clients := make([]*core.Client, w.clients)
	sources := make([]*pacedSource, w.clients)
	taps := make([]*clientTaps, w.clients)
	runErrs := make([]error, w.clients)
	var dialMu sync.Mutex
	var dialed []transport.Conn
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		vc, err := w.videoConfig(c)
		if err != nil {
			return nil, err
		}
		gen, err := video.NewGenerator(vc)
		if err != nil {
			return nil, err
		}
		student, err := experiments.FreshStudentFor(cfg)
		if err != nil {
			return nil, err
		}
		tap := newClientTaps(frames, cfg.MinStride, w.linkPolicy != "")
		if w.cutLinks {
			tap.cutAt = cutAtDiff(frames)
		}
		attempt := 0
		dial := func() (transport.Conn, error) {
			k := attempt
			attempt++
			var tc *transport.TCPConn
			switch {
			case w.lossModel != "":
				po, err := packetOpts(seed+int64(c)*7919+int64(k)*101, &p.up)
				if err != nil {
					return nil, err
				}
				tc, err = transport.DialImpaired(ln.Addr(), w.bandwidth, nil, po, acct)
				if err != nil {
					return nil, err
				}
			case w.cutLinks:
				nc, err := net.Dial("tcp", ln.Addr())
				if err != nil {
					return nil, err
				}
				if k == 0 {
					tap.cut = newCutConn(nc)
					nc = tap.cut
				}
				tc = transport.NewTCPConn(nc, acct, false)
			default:
				var err error
				tc, err = transport.Dial(ln.Addr(), w.bandwidth, acct)
				if err != nil {
					return nil, err
				}
			}
			dialMu.Lock()
			dialed = append(dialed, tc)
			dialMu.Unlock()
			return tap.wrap(tc), nil
		}
		cl := &core.Client{
			Cfg:         cfg,
			Student:     student,
			EvalTeacher: teacher.NewOracle(seed + 1000 + int64(c)),
			EvalEvery:   evalEvery,
			SessionID:   ids[c],
			Adaptive:    w.linkPolicy != "",
		}
		if w.envelope != "" {
			cl.Base = base.Params
		}
		if w.cutLinks {
			cl.Dial = dial
		}
		clients[c], taps[c] = cl, tap
		sources[c] = &pacedSource{
			gen: gen, base: c << clientShift, rate: w.paceFPS, region: reg,
			latency: make([]float64, 0, frames),
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := dial()
			if err != nil {
				runErrs[c] = err
				return
			}
			runErrs[c] = cl.Run(conn, sources[c], frames)
		}(c)
	}
	wg.Wait()
	end := time.Now()
	p.cpu = cpuTime() - reg.cpu
	p.wall = end.Sub(reg.start)
	p.setup = reg.start.Sub(began)

	for _, c := range dialed {
		c.Close()
	}
	ln.Close()
	<-acceptDone
	handlers.Wait()

	// Fold what the tier and the clients saw.
	if router != nil {
		rs := router.Stats()
		p.stats, p.routed, p.handoffs, p.sheds = rs.Agg, rs.Routed, rs.Handoffs, rs.Sheds
		for _, sh := range rs.Shards {
			p.served = append(p.served, sh.SessionsServed)
		}
	} else {
		p.stats = mgr.Stats()
		p.served = []int64{p.stats.SessionsServed}
	}
	p.upBytes, p.downBytes = acct.Totals()
	var ious, strides, recoveries []float64
	for c, cl := range clients {
		if runErrs[c] != nil {
			p.failf("client %d: %v", c, runErrs[c])
		}
		res := cl.Result
		p.keyFrames += res.KeyFrames
		rtt, problems := taps[c].roundTrips()
		p.rtt = append(p.rtt, rtt...)
		for _, m := range problems {
			p.failf("client %d: %s", c, m)
		}
		if len(rtt) != res.KeyFrames {
			p.failf("client %d: %d key frames sent, %d diffs received", c, res.KeyFrames, len(rtt))
			if d := res.KeyFrames - len(rtt); d > 0 {
				p.failedOps += d
			}
		}
		p.latency = append(p.latency, sources[c].latency...)
		ious = append(ious, res.MeanIoU)
		strides = append(strides, res.StrideTrace...)
		p.reconnects += res.Reconnects
		p.replays += res.ResumeReplays
		p.fullResends += res.FullResends
		p.staleFrames += res.StaleFrames
		for _, d := range res.RecoveryTimes {
			recoveries = append(recoveries, ms(d))
		}
		if late := ms(sources[c].maxLate); late > p.maxLateMs {
			p.maxLateMs = late
		}
		p.videoMs += ms(sources[c].genTime) / float64(frames) / float64(w.clients)

		// A cut link is an operation that must recover by journal replay;
		// any other reconnect is a failure.
		want := 0
		if w.cutLinks {
			want = 1
		}
		if res.Reconnects != want || res.ResumeReplays != want || res.FullResends != 0 {
			p.failf("client %d: %d reconnects (%d by replay, %d full resends), want %d by replay",
				c, res.Reconnects, res.ResumeReplays, res.FullResends, want)
			p.failedOps++
		}
	}
	p.miou, p.strideMean, p.recoveryMs = stats.Mean(ious), stats.Mean(strides), stats.Mean(recoveries)

	for _, err := range handleErrs {
		p.failf("session did not end clean: %v", err)
		p.failedOps++
	}
	if math.IsNaN(p.miou) || math.IsInf(p.miou, 0) || p.miou <= 0 {
		p.failf("miou %v is not a positive finite number", p.miou)
	}
	if sent, lost, rec, retx := p.packetCounts(); lost != rec+retx {
		p.failf("packets: %d lost != %d recovered + %d retransmitted (%d sent)", lost, rec, retx, sent)
	}
	for i, n := range p.served {
		if want := int64(w.clients) / int64(len(p.served)); n != want {
			p.failf("shard %d served %d sessions, want %d", i, n, want)
		}
	}
	if p.keyFrames == 0 {
		p.failf("no key frame was sent")
	}
	if p.failedOps > p.keyFrames {
		p.failedOps = p.keyFrames
	}
	if traced {
		p.spans = tr.spans(reg.start, ids, taps)
		var handshakes []float64
		for _, id := range ids {
			if st := tr.sessions[id]; !st.fullSent.IsZero() {
				handshakes = append(handshakes, ms(st.fullSent.Sub(st.helloRecv)))
			}
		}
		p.handshakeMs = stats.Mean(handshakes)
	}
	return p, nil
}
