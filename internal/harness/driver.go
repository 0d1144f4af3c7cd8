package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// workloadConfig resolves a workload name for one client: "mixed" cycles
// the seven LVS categories (heterogeneous multi-client deployments), a
// category string selects that row, and anything else is tried as a named
// Figure-4 stream. Each client derives its own seed so concurrent sessions
// never share a stream.
func workloadConfig(spec Spec, client int) (video.Config, error) {
	seed := spec.Seed + int64(client)*131
	name := spec.Workload
	if name == "mixed" {
		return video.CategoryConfig(video.Categories[client%len(video.Categories)], seed), nil
	}
	for _, cat := range video.Categories {
		if cat.String() == name {
			return video.CategoryConfig(cat, seed), nil
		}
	}
	cfg, err := video.NamedVideo(name, seed)
	if err != nil {
		return video.Config{}, fmt.Errorf("harness: unknown workload %q (want \"mixed\", an LVS category, or a named stream)", name)
	}
	return cfg, nil
}

// localKeyFrameBytes is the nominal size of one key-frame body at the
// reproduction's frame size — the image as uncompressed float32, without
// the oracle label side-channel (transport.KeyFrameWireBytes) — and the unit
// netsim.HDScale converts into the paper's HD regime. It is fixed by the
// frame size, not by the wire format: the coded body is smaller, and those
// measured bytes are what the traffic metrics scale.
func localKeyFrameBytes() int {
	img := tensor.New(3, video.DefaultH, video.DefaultW)
	return transport.KeyFrameWireBytes(transport.KeyFrame{Image: img})
}

// sessionID picks client c's requested session ID. The default 1-based
// numbering spreads roughly uniformly under rendezvous hashing; HashSkew
// instead walks the ID space for IDs whose fabric home is shard 0, building
// the deliberate hotspot the admission-control scenarios need.
func sessionID(spec Spec, c int) uint64 {
	if !spec.HashSkew {
		return uint64(c + 1)
	}
	hits := 0
	for id := uint64(1); ; id++ {
		if fabric.ShardFor(id, spec.Shards) == 0 {
			if hits == c {
				return id
			}
			hits++
		}
	}
}

// packetOptions builds one connection's packet-layer config from the spec.
// Each connection needs its own options value: loss models carry state
// (Gilbert-Elliott) and must never be shared across conns, and the seed
// keys every draw, so per-conn seeds keep links independent while the whole
// scenario stays deterministic.
func packetOptions(spec Spec, seed int64, totals *netsim.LinkTotals) (netsim.PacketOptions, error) {
	loss, err := netsim.LossModelByName(spec.LossModel, seed, spec.Trace)
	if err != nil {
		return netsim.PacketOptions{}, err
	}
	var im *netsim.Impairment
	if spec.Reorder > 0 {
		im = &netsim.Impairment{Seed: seed ^ 0x5eed, ReorderProb: spec.Reorder}
	}
	return netsim.PacketOptions{FECGroup: spec.FECGroup, Loss: loss, Impair: im, Totals: totals}, nil
}

// pacedSource hands out its source's frames at least every apart
// (Spec.FrameInterval). Closed loop: the interval runs from the previous
// hand-out, so a client that stalled is not owed a burst afterwards.
type pacedSource struct {
	src   video.Source
	every time.Duration
	next  time.Time
}

func (p *pacedSource) Next() video.Frame {
	if d := time.Until(p.next); d > 0 {
		time.Sleep(d)
	}
	p.next = time.Now().Add(p.every)
	return p.src.Next()
}

// clientDialer returns the dial function of one client: loopback TCP under
// the link stack the spec describes (pseed keys this client's uplink loss
// draws; attempt k salts it so redials stay independent). The attempt
// counter makes a client's i-th (re)connection pick up the fault script at
// ChaosCuts[i], up to its first cut; connections past the script run clean.
// The counter needs no lock — a client dials sequentially (initial connect,
// then one recovery at a time), with happens-before edges through the
// recovery hand-off.
func clientDialer(spec Spec, addr string, acct *netsim.Accountant, up *netsim.LinkTotals, pseed int64) func() (transport.Conn, error) {
	attempt := 0
	return func() (transport.Conn, error) {
		k := attempt
		attempt++
		link := netsim.Stack{Bandwidth: spec.Bandwidth, Trace: spec.Trace}
		if spec.usePackets() {
			popts, err := packetOptions(spec, pseed+int64(k)*101, up)
			if err != nil {
				return nil, err
			}
			link.Packet = &popts
		}
		if k < len(spec.ChaosCuts) {
			link.Faults = spec.ChaosCuts[k:]
			for i, f := range link.Faults {
				if f.Stall == 0 {
					link.Faults = link.Faults[:i+1]
					break
				}
			}
		}
		return transport.DialLink(addr, link, acct)
	}
}

// Drive runs one end-to-end scenario: on one side the serving tier
// shadowtutor-server ships, a loopback fabric.Router over spec.Shards shard
// workers (each with its own teacher behind one mutex); on the other,
// spec.Clients concurrent core.Clients, each over its own (throttled or
// trace-shaped) TCP link, with the spec's codec as the tier's diff codec.
func Drive(name, family string, spec Spec) (Metrics, error) {
	spec.setDefaults()
	linkPolicy := spec.linkPolicy()
	cfg := core.DefaultConfig()
	// Telemetry: instrument the whole run on the caller's registry. A nil
	// reg disables every record path (the metric handles are all nil-safe).
	reg := spec.Telemetry
	base, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		return Metrics{}, err
	}
	perShard := spec.ShardCapacity
	if perShard <= 0 {
		perShard = spec.Clients
	}
	router, err := fabric.NewRouter(fabric.Options{
		Shards:    spec.Shards,
		Telemetry: reg,
		Shard: func(i int) serve.Options {
			return serve.Options{
				Cfg:           cfg,
				Base:          base,
				Teacher:       teacher.NewOracle(spec.Seed + 997 + int64(i)*7919),
				MaxSessions:   perShard,
				EnvelopeCodec: spec.EnvelopeCodec,
				LinkPolicy:    linkPolicy,
			}
		},
	})
	if err != nil {
		return Metrics{}, err
	}
	acct := &netsim.Accountant{}
	ln, err := transport.Listen("127.0.0.1:0", 0, acct)
	if err != nil {
		return Metrics{}, err
	}
	// Packet layer: both directions wrap. The listener factory gives every
	// accepted conn (the server→client downlink) its own seeded loss model;
	// client dialers wrap the uplink symmetrically below.
	var downTotals, upTotals *netsim.LinkTotals
	if spec.usePackets() {
		// Fail on an unparsable loss-model spec before any session starts —
		// the accept-time factory below cannot return an error.
		if _, err := packetOptions(spec, spec.Seed, nil); err != nil {
			return Metrics{}, err
		}
		downTotals, upTotals = &netsim.LinkTotals{}, &netsim.LinkTotals{}
		netsim.RegisterLinkTotals(reg, "down", downTotals)
		netsim.RegisterLinkTotals(reg, "up", upTotals)
		var acceptSeq atomic.Int64
		ln.SetPacketWrap(func() *netsim.PacketOptions {
			popts, err := packetOptions(spec, spec.Seed+0xD0000000+acceptSeq.Add(1)*977, downTotals)
			if err != nil {
				return nil
			}
			return &popts
		})
	}
	// Capacity 2: the serve-loop result plus a possible drain error, so
	// neither sender can block after Drive has returned.
	serveErr := make(chan error, 2)
	go func() { serveErr <- router.ServeListener(ln) }()
	if spec.DrainAfter > 0 {
		drainTimer := time.AfterFunc(spec.DrainAfter, func() {
			if _, err := router.Drain(spec.DrainShard); err != nil {
				// Draining an already-drained or last shard is a scenario
				// authoring error; surface it through the serve loop result.
				select {
				case serveErr <- err:
				default:
				}
			}
		})
		defer drainTimer.Stop()
	}

	clients := make([]*core.Client, spec.Clients)
	errs := make([]error, spec.Clients)
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			vcfg, err := workloadConfig(spec, c)
			if err != nil {
				errs[c] = err
				return
			}
			gen, err := video.NewGenerator(vcfg)
			if err != nil {
				errs[c] = err
				return
			}
			dial := clientDialer(spec, ln.Addr(), acct, upTotals, spec.Seed+0x0A000000+int64(c)*7919)
			conn, err := dial()
			if err != nil {
				errs[c] = err
				return
			}
			cl := &core.Client{
				Cfg:          cfg,
				Student:      base.Clone(),
				EvalTeacher:  teacher.NewOracle(spec.Seed + 997),
				EvalEvery:    spec.EvalEvery,
				SessionID:    sessionID(spec, c),
				TrackLatency: true,
				Telemetry:    reg,
			}
			if spec.EnvelopeCodec != "" {
				// Clients hold the shared base (read-only), so they send its
				// hash and checkpoints arrive base-relative.
				cl.Base = base.Params
			}
			// Every client redials as the shipped one does, through the
			// same dialer, so its i-th redial picks up the i-th scripted
			// fault; a shed Hello retries too, with patience enough for a
			// hotspot's watermark (the sessions ahead of it must finish).
			cl.Dial = dial
			cl.MaxResumeAttempts = 120
			var src video.Source = gen
			if spec.FrameInterval > 0 {
				src = &pacedSource{src: gen, every: spec.FrameInterval}
			}
			errs[c] = cl.Run(conn, src, spec.Frames)
			clients[c] = cl
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := router.Close(); err != nil {
		return Metrics{}, err
	}
	if err := <-serveErr; err != nil {
		return Metrics{}, fmt.Errorf("harness: serve loop: %w", err)
	}
	for c, err := range errs {
		if err != nil {
			return Metrics{}, fmt.Errorf("harness: client %d: %w", c, err)
		}
	}

	m := Metrics{
		Scenario:        name,
		Family:          family,
		Workload:        spec.Workload,
		Bandwidth:       spec.BandwidthLabel(),
		Codec:           spec.CodecLabel(),
		Clients:         spec.Clients,
		FramesPerClient: spec.Frames,
		WallSeconds:     elapsed.Seconds(),
	}
	var fps, iou, latMS, recMS []float64
	var keyFrames int
	for _, cl := range clients {
		fps = append(fps, float64(cl.Result.Frames)/cl.Result.Elapsed.Seconds())
		iou = append(iou, cl.Result.MeanIoU)
		keyFrames += cl.Result.KeyFrames
		for _, d := range cl.Result.FrameLatencies {
			latMS = append(latMS, float64(d)/float64(time.Millisecond))
		}
		m.Reconnects += cl.Result.Reconnects
		m.ResumeReplays += cl.Result.ResumeReplays
		m.FullResends += cl.Result.FullResends
		m.StaleFrames += cl.Result.StaleFrames
		for _, d := range cl.Result.RecoveryTimes {
			recMS = append(recMS, float64(d)/float64(time.Millisecond))
		}
	}
	m.RecoveryMeanMS = stats.Mean(recMS)
	totalFrames := spec.Clients * spec.Frames
	m.AggregateFPS = float64(totalFrames) / elapsed.Seconds()
	m.MeanClientFPS = stats.Mean(fps)
	m.MeanIoU = stats.Mean(iou)
	m.LatencyP50MS = stats.Percentile(latMS, 50)
	m.LatencyP99MS = stats.Percentile(latMS, 99)
	m.KeyFrameRate = float64(keyFrames) / float64(totalFrames)

	up, down := acct.Totals()
	kfBytes := localKeyFrameBytes()
	// The oracle label side-channel rides on the wire as runs — some 200
	// bytes beside the coded image — and is counted with it.
	m.BytesUpHDMB = netsim.HDScale(up, kfBytes) / 1e6
	m.BytesDownHDMB = netsim.HDScale(down, kfBytes) / 1e6

	fs := router.Stats()
	ms := fs.Agg
	m.Shards = spec.Shards
	m.Handoffs = fs.Handoffs
	m.Sheds = fs.Sheds
	m.Migrated = fs.Migrated
	for _, ss := range fs.Shards {
		m.ShardSessions = append(m.ShardSessions, ss.SessionsServed)
	}
	m.MeanDistillSteps = ms.MeanDistillSteps()
	m.DistillStepMS = float64(ms.MeanStepLatency()) / float64(time.Millisecond)

	if spec.usePackets() {
		m.LossModel = spec.LossLabel()
		m.FECGroup = spec.FECGroup
		m.PacketsSent = downTotals.Sent.Load() + upTotals.Sent.Load()
		m.PacketsLost = downTotals.Lost.Load() + upTotals.Lost.Load()
		m.PacketsRecovered = downTotals.Recovered.Load() + upTotals.Recovered.Load()
		m.PacketRetransmits = downTotals.Retransmits.Load() + upTotals.Retransmits.Load()
		if m.PacketsSent > 0 {
			m.LossRatePct = 100 * float64(m.PacketsLost) / float64(m.PacketsSent)
		}
		// Goodput is delivered diff payload over wall time: the downlink is
		// where the policy's codec choices show up as bytes saved.
		m.GoodputMbps = netsim.TrafficMbps(downTotals.PayloadBytes.Load(), elapsed)
	}

	if spec.EnvelopeCodec != "" {
		// Delta-checkpoint byte accounting: envelope_shrink_x (named after
		// Spec.EnvelopeCodec) is the wire shrink of MsgStudentFull bodies —
		// handshake checkpoints plus resume-full resends — against what the
		// raw encoding would have cost.
		if m.Extra == nil {
			m.Extra = map[string]float64{}
		}
		m.Extra["full_resend_bytes"] = float64(ms.FullResendBytes)
		if ck := ms.CheckpointBytes + ms.FullResendBytes; ck > 0 {
			m.Extra["envelope_shrink_x"] = float64(ms.CheckpointBaseline+ms.FullResendBaseline) / float64(ck)
		}
	}
	return m, nil
}
