// Command shadowtutor-server runs the multi-session ShadowTutor server over
// TCP: it loads the pre-trained student, then serves any number of
// concurrent clients (Algorithm 3 per session) through a fabric.Router over
// -shards shard workers. Each session distils a private student clone, and
// a shard's sessions take turns on that shard's teacher (internal/serve).
// THRESHOLD and MAX_UPDATES are the paper's (core.DefaultConfig).
//
// Usage:
//
//	shadowtutor-server -listen 127.0.0.1:7607 -partial=true
//	shadowtutor-server -shards 4 -bandwidth 80   # four shards, an 80 Mbps link per client
//	shadowtutor-server -envelope-codec delta+int8 # base-relative int8 checkpoints
//	shadowtutor-server -admin :9090              # live /metrics, /statusz, /tracez, pprof
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
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
		listen    = flag.String("listen", "127.0.0.1:7607", "address to listen on")
		partial   = flag.Bool("partial", true, "partial distillation (freeze through SB4)")
		bandwidth = flag.Float64("bandwidth", 0, "throttle link to this many Mbps (0 = unlimited)")
		shards    = flag.Int("shards", 1, "shard workers in the serving fabric")
		envCodec  = flag.String("envelope-codec", "", "compress codec for MsgStudentFull checkpoints to clients holding the pretrained base, relative to it, e.g. \"delta+int8\" (empty = raw)")
		adminAddr = flag.String("admin", "", "serve the admin HTTP endpoint (/metrics, /statusz, /tracez, /debug/pprof) on this address (empty = disabled)")
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

	log.Printf("loading pre-trained student…")
	student, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		log.Fatalf("pre-trained student: %v", err)
	}
	log.Printf("student ready: %d params, %.1f%% trainable",
		student.Params.NumParams(), student.Params.TrainableFraction()*100)

	router, err := fabric.NewRouter(fabric.Options{
		Shards: *shards,
		Shard: func(i int) serve.Options {
			return serve.Options{
				Cfg:  cfg,
				Base: student,
				// One teacher replica per shard: the shard's mutex
				// serialises its sessions' calls, so a teacher must not be
				// shared across shards.
				Teacher: teacher.NewOracle(1 + int64(i)),
				// Checkpoints go relative to the shared pretrained base;
				// clients that don't advertise it still receive raw ones.
				EnvelopeCodec: *envCodec,
				Logf:          log.Printf,
			}
		},
		Telemetry: reg,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := transport.Listen(*listen, netsim.Mbps(*bandwidth), nil)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (partial=%v, bandwidth=%v, shards=%d)", ln.Addr(), *partial, *bandwidth, *shards)

	// SIGINT/SIGTERM stop the accept loop and drain active sessions.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down, draining %d shards…", *shards)
		router.Close()
	}()
	if err := router.ServeListener(ln); err != nil {
		log.Fatalf("accept loop: %v", err)
	}
	// ServeListener returns once Close has begun; Close is idempotent and
	// blocks until the drain completes.
	router.Close()
	fs := router.Stats()
	for _, ss := range fs.Shards {
		log.Printf("shard %d: %d sessions, %d key frames", ss.Index, ss.SessionsServed, ss.KeyFrames)
	}
	log.Printf("fabric: %d routed, %d handoffs, %d sheds, %d drain migrations; %d sessions total",
		fs.Routed, fs.Handoffs, fs.Sheds, fs.Migrated, fs.Agg.SessionsServed)
	if st := fs.Agg; st.ResumeReplays+st.ResumeFulls > 0 || st.Evicted > 0 {
		log.Printf("resilience: %d resumes (%d journal replays, %d full fallbacks), %d parked sessions evicted",
			st.ResumeReplays+st.ResumeFulls, st.ResumeReplays, st.ResumeFulls, st.Evicted)
	}
}
