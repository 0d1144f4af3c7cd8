// Command shadowtutor-server runs the multi-session ShadowTutor server over
// TCP: it loads the pre-trained student, then serves any number of
// concurrent clients (Algorithm 3 per session), giving each its own
// distiller over a private student clone while batching every session's key
// frames through one shared teacher (internal/serve).
//
// Usage:
//
//	shadowtutor-server -listen 127.0.0.1:7607 -max-sessions 64 -partial=true
//	shadowtutor-server -shards 4    # sharded serving fabric (internal/fabric)
//	shadowtutor-server -admin :9090 # live /metrics, /statusz, /tracez, pprof
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/teacher"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shadowtutor-server: ")
	var (
		listen      = flag.String("listen", "127.0.0.1:7607", "address to listen on")
		partial     = flag.Bool("partial", true, "partial distillation (freeze through SB4)")
		bandwidth   = flag.Float64("bandwidth", 0, "throttle link to this many Mbps (0 = unlimited)")
		threshold   = flag.Float64("threshold", 0.8, "student metric THRESHOLD")
		maxUpd      = flag.Int("max-updates", 8, "MAX_UPDATES per key frame")
		shards      = flag.Int("shards", 1, "shard workers in the serving fabric (1 = single session manager)")
		maxSessions = flag.Int("max-sessions", 64, "concurrent client session cap (per shard when -shards > 1)")
		resumeTTL   = flag.Duration("resume-ttl", 2*time.Minute, "how long a disconnected session stays resumable")
		journal     = flag.Int("journal-depth", 8, "recent student diffs journaled per session for resume replay")
		envCodec    = flag.String("envelope-codec", "", "compress codec for MsgStudentFull checkpoints to clients holding the pretrained base, relative to it, e.g. \"delta+int8\" (empty = raw)")
		lossModel   = flag.String("loss-model", "", "simulate packet loss on every accepted connection (netsim spec, e.g. \"uniform:0.02\" or \"ge:0.02,0.25,0.002,0.5\"; empty = plain byte stream). Clients must run the same packet framing (their -loss-model flag)")
		fec         = flag.Int("fec", 0, "XOR-parity FEC group size for the packet layer (0 = no FEC)")
		reorder     = flag.Float64("reorder", 0, "per-packet reorder probability for the packet layer")
		lossSeed    = flag.Int64("loss-seed", 1, "seed for the packet layer's loss/reorder draws")
		adaptive    = flag.Bool("adaptive", false, "run the adaptive link policy: watch each session's measured loss/goodput and switch diff codec, stride scale and FEC at runtime")
		adminAddr   = flag.String("admin", "", "serve the admin HTTP endpoint (/metrics, /statusz, /tracez, /debug/pprof) on this address (empty = disabled)")
	)
	flag.Parse()

	// Admin endpoint: bind before anything serves, so a bad address fails
	// fast; the registry is nil (every record path disabled) unless enabled.
	var reg *telemetry.Registry
	var admin *telemetry.Admin
	if *adminAddr != "" {
		reg = telemetry.Default
		var err error
		admin, err = telemetry.NewAdmin(*adminAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("admin endpoint on http://%s (/metrics /statusz /tracez /debug/pprof)", admin.Addr())
	}
	// Admin outlives the drain: in-flight scrapes finish, then the listener
	// closes (nil-safe when -admin is off; log.Fatal paths skip it, which is
	// fine — the process is exiting anyway).
	defer admin.Close(2 * time.Second)

	cfg := core.DefaultConfig()
	cfg.Partial = *partial
	cfg.Threshold = *threshold
	cfg.MaxUpdates = *maxUpd
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	log.Printf("loading pre-trained student…")
	student, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		log.Fatalf("pre-trained student: %v", err)
	}
	log.Printf("student ready: %d params, %.1f%% trainable",
		student.Params.NumParams(), student.Params.TrainableFraction()*100)

	shardOptions := func(i int) serve.Options {
		o := serve.Options{
			Cfg:  cfg,
			Base: student,
			// One teacher replica per shard: teachers serialise behind
			// their shard's batcher and must not be shared across shards.
			Teacher:      teacher.NewOracle(1 + int64(i)),
			MaxSessions:  *maxSessions,
			ResumeTTL:    *resumeTTL,
			JournalDepth: *journal,
			// Delta-encode checkpoints against the shared pretrained
			// base; clients that don't advertise the capability still
			// receive raw checkpoints.
			EnvelopeCodec: *envCodec,
			Telemetry:     reg,
			ShardIndex:    i,
			Logf:          log.Printf,
		}
		if *adaptive {
			o.LinkPolicy = "adaptive"
		}
		return o
	}

	ln, err := transport.Listen(*listen, netsim.Mbps(*bandwidth), nil)
	if err != nil {
		log.Fatal(err)
	}
	if *lossModel != "" || *fec > 0 || *reorder > 0 {
		// Packet layer on the server→client direction: every accepted
		// connection gets its own deterministically-seeded loss model
		// (models carry state and must not be shared across conns).
		if _, err := netsim.LossModelByName(*lossModel, *lossSeed, nil); err != nil {
			log.Fatal(err)
		}
		downTotals := &netsim.LinkTotals{}
		netsim.RegisterLinkTotals(reg, "down", downTotals)
		var connSeq atomic.Int64
		ln.SetPacketWrap(func() *netsim.PacketOptions {
			seed := *lossSeed + connSeq.Add(1)*977
			loss, err := netsim.LossModelByName(*lossModel, seed, nil)
			if err != nil {
				return nil
			}
			popts := &netsim.PacketOptions{FECGroup: *fec, Loss: loss, Totals: downTotals}
			if *reorder > 0 {
				popts.Impair = &netsim.Impairment{Seed: seed ^ 0x5eed, ReorderProb: *reorder}
			}
			return popts
		})
	}

	// SIGINT/SIGTERM stop the accept loop and drain active sessions.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	if *shards > 1 {
		router, err := fabric.NewRouter(fabric.Options{
			Shards:    *shards,
			Shard:     shardOptions,
			Telemetry: reg,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("listening on %s (partial=%v, bandwidth=%v, shards=%d, max-sessions=%d/shard)",
			ln.Addr(), *partial, *bandwidth, *shards, *maxSessions)
		go func() {
			<-sigs
			log.Printf("shutting down, draining %d shards…", *shards)
			router.Close()
		}()
		if err := router.ServeListener(ln); err != nil {
			log.Fatalf("accept loop: %v", err)
		}
		router.Close()
		fs := router.Stats()
		for _, ss := range fs.Shards {
			log.Printf("shard %d: %d sessions, %d key frames, mean teacher batch %.2f",
				ss.Index, ss.SessionsServed, ss.KeyFrames, ss.Teacher.MeanBatch())
		}
		log.Printf("fabric: %d routed, %d handoffs, %d sheds, %d drain migrations; %d sessions total",
			fs.Routed, fs.Handoffs, fs.Sheds, fs.Migrated, fs.Agg.SessionsServed)
		return
	}

	mgr, err := serve.NewManager(shardOptions(0))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (partial=%v, bandwidth=%v, max-sessions=%d)",
		ln.Addr(), *partial, *bandwidth, *maxSessions)
	go func() {
		<-sigs
		log.Printf("shutting down, draining sessions…")
		mgr.Close()
	}()

	if err := mgr.ServeListener(ln); err != nil {
		log.Fatalf("accept loop: %v", err)
	}
	// ServeListener returns once Close has begun; Close is idempotent and
	// blocks until the drain completes.
	mgr.Close()
	st := mgr.Stats()
	log.Printf("served %d sessions, %d key frames, mean teacher batch %.2f",
		st.SessionsServed, st.KeyFrames, st.Teacher.MeanBatch())
	if resumed := st.ResumeReplays + st.ResumeFulls; resumed > 0 || st.Evicted > 0 {
		log.Printf("resilience: %d resumes (%d journal replays, %d full fallbacks), %d parked sessions evicted",
			resumed, st.ResumeReplays, st.ResumeFulls, st.Evicted)
	}
}
