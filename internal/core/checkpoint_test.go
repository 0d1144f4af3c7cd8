package core

import (
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

func TestCheckpointCodecMatch(t *testing.T) {
	base := tinyStudent(21)
	ck := &CheckpointCodec{Base: base.Params}
	if !ck.Match(transport.CapDeltaCheckpoint, ck.Hash()) {
		t.Fatal("capability + matching hash must match")
	}
	if ck.Match(0, ck.Hash()) {
		t.Fatal("missing capability bit must not match")
	}
	if ck.Match(transport.CapDeltaCheckpoint, ck.Hash()^1) {
		t.Fatal("mismatched base hash must not match")
	}
	var nilCk *CheckpointCodec
	if nilCk.Match(transport.CapDeltaCheckpoint, 0) {
		t.Fatal("nil codec must never match")
	}
}

func TestCheckpointBodyRoundTripsBothFormats(t *testing.T) {
	// Partial distillation freezes everything through SB4; the frozen
	// majority collapses to bit-copy headers in the delta body.
	base := tinyStudent(21)
	base.SetPartial(true)
	trained := base.Clone()
	for _, p := range nn.TrainableSubset(trained.Params) {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.25
		}
	}
	ck := &CheckpointCodec{Base: base.Params}
	body, err := ck.EncodeBody(trained.Params.All())
	if err != nil {
		t.Fatal(err)
	}
	raw := nn.EncodedSize(trained.Params.All())
	if len(body) >= raw {
		t.Fatalf("delta body %dB not smaller than raw %dB", len(body), raw)
	}
	got, err := DecodeCheckpointBody(body, base.Params)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range trained.Params.All() {
		for j, v := range p.Value.Data {
			if got[i].Value.Data[j] != v {
				t.Fatalf("%s[%d]: delta+raw checkpoint must be bit-exact", p.Name, j)
			}
		}
	}
	if _, err := DecodeCheckpointBody(body, nil); err == nil {
		t.Fatal("delta body without a base must be rejected")
	}
}

// The capability negotiation end to end over a real pipe session: a client
// holding the shared base receives the delta-encoded handshake checkpoint, a
// legacy client (no base) gets the raw body from the very same server
// configuration, and a client whose base hash disagrees is downgraded to raw
// too. The observer's Checkpoint call reports which format was sent.
func TestServerChecksClientCapabilityForDeltaCheckpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxUpdates = 1
	frames := collect(t, 47, 12)
	base := tinyStudent(21)

	run := func(t *testing.T, clientBase *nn.ParamSet) (actual, baseline_ int, cl *Client) {
		t.Helper()
		clientConn, serverConn := transport.Pipe(4, nil)
		srv := NewServer(cfg, base.Clone(), teacher.NewOracle(3))
		srv.Checkpoint = &CheckpointCodec{Base: base.Params, Codec: compress.Int8{}}
		srv.Observer = checkpointSizes{actual: &actual, baseline: &baseline_}
		var wg sync.WaitGroup
		wg.Add(1)
		var srvErr error
		go func() {
			defer wg.Done()
			srvErr = srv.Serve(serverConn)
		}()
		cl = &Client{Cfg: cfg, Student: tinyStudent(99), Base: clientBase}
		if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err != nil {
			t.Fatalf("client: %v", err)
		}
		clientConn.Close()
		wg.Wait()
		if srvErr != nil {
			t.Fatalf("server: %v", srvErr)
		}
		return actual, baseline_, cl
	}

	t.Run("capable", func(t *testing.T) {
		actual, raw, cl := run(t, base.Params)
		if actual == 0 || raw == 0 {
			t.Fatal("observer saw no checkpoint")
		}
		// A pristine handshake checkpoint is all bit-copy headers.
		if actual*5 > raw {
			t.Fatalf("delta checkpoint %dB should be ≪ raw %dB", actual, raw)
		}
		if cl.Result.KeyFrames == 0 {
			t.Fatal("session did not train")
		}
	})
	t.Run("legacy", func(t *testing.T) {
		actual, raw, cl := run(t, nil)
		if actual != raw {
			t.Fatalf("client without the capability must get the raw body (%dB vs %dB)", actual, raw)
		}
		if cl.Result.KeyFrames == 0 {
			t.Fatal("session did not train")
		}
	})
	t.Run("mismatched-base", func(t *testing.T) {
		actual, raw, _ := run(t, tinyStudent(77).Params)
		if actual != raw {
			t.Fatalf("mismatched base hash must downgrade to raw (%dB vs %dB)", actual, raw)
		}
	})
}

// checkpointSizes is a partial SessionObserver recording the handshake
// checkpoint's byte counts.
type checkpointSizes struct {
	nopObserver
	actual, baseline *int
}

func (o checkpointSizes) Checkpoint(actual, baseline int) { *o.actual, *o.baseline = actual, baseline }
