// Command shadowtutor-client runs the ShadowTutor mobile client
// (Algorithm 4) over TCP against a shadowtutor-server: it streams a
// synthetic video, infers every frame on-device with the student, ships
// sparse key frames, and applies the returned student updates
// asynchronously.
//
// Usage:
//
//	shadowtutor-client -connect 127.0.0.1:7607 -stream moving/street -frames 500
//
// With -reconnect (the default) a dropped connection does not kill the
// session: the client keeps inferring locally on its stale student,
// redials with backoff, and resumes the server-side session via the
// protocol-v3 Resume handshake (journal replay, full-checkpoint fallback).
// A Hello that a loaded server sheds is redialled the same way, on the same
// -reconnect-attempts budget. -reconnect=false restores the legacy
// fail-fast behaviour.
package main

import (
	"flag"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shadowtutor-client: ")
	var (
		connect   = flag.String("connect", "127.0.0.1:7607", "server address")
		stream    = flag.String("stream", "fixed/people", "LVS category (camera/scenery) or named video")
		frames    = flag.Int("frames", 500, "frames to process")
		seed      = flag.Int64("seed", 42, "video seed")
		bandwidth = flag.Float64("bandwidth", 0, "throttle link to this many Mbps (0 = unlimited)")
		evalIoU   = flag.Bool("eval", true, "measure mIoU against the oracle teacher per frame")
		session   = flag.Uint64("session", 0, "session ID to request from the server (0 = server-assigned)")
		reconnect = flag.Bool("reconnect", true, "survive connection drops: redial with backoff and resume the session")
		backoff   = flag.Duration("reconnect-backoff", 100*time.Millisecond, "initial redial backoff (doubles per attempt, capped at 1s)")
		attempts  = flag.Int("reconnect-attempts", 8, "redial attempts per outage or shed admission before giving up")
		deltaCk   = flag.Bool("delta-checkpoints", false, "load the shared pre-trained base locally and send its hash, for base-relative checkpoints (the server sends absolute ones when its base differs)")
		lossModel = flag.String("loss-model", "", "simulate packet loss on the uplink (netsim spec, e.g. \"uniform:0.02\"; empty = plain byte stream). Must match the server's packet framing (-loss-model there)")
		fec       = flag.Int("fec", 0, "XOR-parity FEC group size for the packet layer (0 = no FEC)")
		reorder   = flag.Float64("reorder", 0, "per-packet reorder probability for the packet layer")
		lossSeed  = flag.Int64("loss-seed", 2, "seed for the packet layer's loss/reorder draws")
	)
	flag.Parse()

	cfg, err := streamConfig(*stream, *seed)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := video.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	usePackets := *lossModel != "" || *fec > 0 || *reorder > 0
	attempt := 0
	dial := func() (transport.Conn, error) {
		link := netsim.Stack{Bandwidth: netsim.Mbps(*bandwidth)}
		if usePackets {
			// Each (re)dial gets its own seeded loss model: models carry
			// state and the per-attempt salt keeps redials independent while
			// the whole run stays reproducible under -loss-seed.
			seed := *lossSeed + int64(attempt)*101
			attempt++
			loss, err := netsim.LossModelByName(*lossModel, seed, nil)
			if err != nil {
				return nil, err
			}
			link.Packet = &netsim.PacketOptions{FECGroup: *fec, Loss: loss}
			if *reorder > 0 {
				link.Packet.Impair = &netsim.Impairment{Seed: seed ^ 0x5eed, ReorderProb: *reorder}
			}
		}
		return transport.DialLink(*connect, link, nil)
	}
	conn, err := dial()
	if err != nil {
		log.Fatal(err)
	}

	client := &core.Client{
		Cfg:       core.DefaultConfig(),
		Student:   nn.NewStudentForWire(),
		SessionID: *session,
	}
	if *reconnect {
		client.Dial = dial
		client.ResumeBackoff = *backoff
		client.MaxResumeAttempts = *attempts
	}
	if *evalIoU {
		client.EvalTeacher = teacher.NewOracle(1)
	}
	if *deltaCk {
		// Every host decodes the same embedded base; the Hello base-hash
		// check downgrades to absolute checkpoints when the client's and the
		// server's differ (a server built from another checkpoint).
		log.Printf("loading shared base for delta checkpoints…")
		base, err := experiments.FreshStudentFor(client.Cfg)
		if err != nil {
			log.Fatalf("pre-trained base: %v", err)
		}
		client.Base = base.Params
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
	if usePackets {
		// The first connection's uplink counters (reconnects open new conns
		// with their own counters; the common lossy-link run has just one).
		// Run has closed the conn; its counters outlive it.
		if lo, ok := conn.(netsim.LinkObserver); ok {
			obs := lo.LinkObservation()
			log.Printf("uplink packets: %d sent, %d lost, %d FEC-recovered, %d retransmits, %.2f Mbps goodput",
				obs.PacketsSent, obs.PacketsLost, obs.Recovered, obs.Retransmits, obs.GoodputMbps)
		}
	}
}

func streamConfig(stream string, seed int64) (video.Config, error) {
	for _, cat := range video.Categories {
		if cat.String() == stream {
			return video.CategoryConfig(cat, seed), nil
		}
	}
	return video.NamedVideo(stream, seed)
}
