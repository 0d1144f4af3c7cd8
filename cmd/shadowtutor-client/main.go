// Command shadowtutor-client runs the ShadowTutor mobile client
// (Algorithm 4) over TCP against a shadowtutor-server: it streams a
// synthetic video, infers every frame on-device with the student, ships
// sparse key frames, and applies the returned student updates
// asynchronously.
//
// Usage:
//
//	shadowtutor-client -connect 127.0.0.1:7607 -stream moving/street -frames 500
//	shadowtutor-client -bandwidth 80    # throttle the link to 80 Mbps
//
// A dropped connection does not kill the session: the client keeps
// inferring locally on its stale student, redials with backoff (core.Client's
// defaults), and resumes the server-side session via the Resume handshake
// (journal replay, full-checkpoint fallback). A Hello that a loaded server
// sheds is redialled the same way. The client holds the embedded pretrained
// base and advertises its hash, so checkpoints arrive base-relative.
package main

import (
	"flag"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// videoSeed fixes the synthetic stream, so two runs see the same frames.
const videoSeed = 42

func main() {
	log.SetFlags(0)
	log.SetPrefix("shadowtutor-client: ")
	var (
		connect   = flag.String("connect", "127.0.0.1:7607", "server address")
		stream    = flag.String("stream", "fixed/people", "LVS category (camera/scenery) or named video")
		frames    = flag.Int("frames", 500, "frames to process")
		bandwidth = flag.Float64("bandwidth", 0, "throttle link to this many Mbps (0 = unlimited)")
	)
	flag.Parse()

	cfg, err := streamConfig(*stream)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := video.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	dial := func() (transport.Conn, error) {
		return transport.DialLink(*connect, netsim.Stack{Bandwidth: netsim.Mbps(*bandwidth)}, nil)
	}
	conn, err := dial()
	if err != nil {
		log.Fatal(err)
	}

	// Every host decodes the same embedded base; the Hello base-hash check
	// downgrades to absolute checkpoints when the server's differs.
	ccfg := core.DefaultConfig()
	base, err := experiments.FreshStudentFor(ccfg)
	if err != nil {
		log.Fatalf("pre-trained base: %v", err)
	}
	client := &core.Client{
		Cfg:         ccfg,
		Student:     nn.NewStudentForWire(),
		Base:        base.Params,
		EvalTeacher: teacher.NewOracle(1),
		Dial:        dial,
	}
	log.Printf("streaming %s (%d frames) to %s…", *stream, *frames, *connect)
	if err := client.Run(conn, gen, *frames); err != nil {
		log.Fatalf("client failed: %v", err)
	}
	r := client.Result
	log.Printf("done: session %d, %d frames in %v (%.2f FPS), %d key frames (%.2f%%), mIoU %.3f",
		r.SessionID, r.Frames, r.Elapsed.Round(1e6), float64(r.Frames)/r.Elapsed.Seconds(),
		r.KeyFrames, 100*float64(r.KeyFrames)/float64(r.Frames), r.MeanIoU)
	if r.Reconnects > 0 {
		log.Printf("resilience: %d reconnects (%d journal replays, %d full resends), %d frames on stale weights",
			r.Reconnects, r.ResumeReplays, r.FullResends, r.StaleFrames)
	}
}

func streamConfig(stream string) (video.Config, error) {
	for _, cat := range video.Categories {
		if cat.String() == stream {
			return video.CategoryConfig(cat, videoSeed), nil
		}
	}
	return video.NamedVideo(stream, videoSeed)
}
