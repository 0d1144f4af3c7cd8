package core

import (
	"bytes"
	"math"
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
	if !ck.Match(ck.Hash()) {
		t.Fatal("a matching base hash must match")
	}
	if ck.Match(ck.Hash() ^ 1) {
		t.Fatal("mismatched base hash must not match")
	}
	if ck.Match(0) {
		t.Fatal("a peer without a base (hash 0) must not match")
	}
	var nilCk *CheckpointCodec
	if nilCk.Match(0) {
		t.Fatal("nil codec must never match")
	}
}

// A checkpoint is one parameter section: base-relative for a peer holding
// the base, absolute for anyone else, both bit-exact under raw. A relative
// body decoded against another base is refused, as are the formats
// protocol version 4 sent: a magic-prefixed delta body and a raw
// nn.WriteNamed one.
func TestCheckpointBodyRoundTripsBothFormats(t *testing.T) {
	// Partial distillation freezes everything through SB4; the frozen
	// majority collapses to bit-copy headers in the relative body.
	base := tinyStudent(21)
	base.SetPartial(true)
	trained := base.Clone()
	for _, p := range nn.TrainableSubset(trained.Params) {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.25
		}
	}
	all := trained.Params.All()
	raw := nn.EncodedSize(all)
	ck := &CheckpointCodec{Base: base.Params}
	relative, err := ck.EncodeBody(all)
	if err != nil {
		t.Fatal(err)
	}
	absolute, err := ck.EncodeFor(0, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(relative) >= raw/2 || len(absolute) > raw+raw/20 {
		t.Fatalf("relative %dB, absolute %dB beside raw %dB", len(relative), len(absolute), raw)
	}
	for name, tc := range map[string]struct {
		body []byte
		base *nn.ParamSet
	}{"relative": {relative, base.Params}, "absolute": {absolute, nil}, "absolute, base held": {absolute, base.Params}} {
		got, err := DecodeCheckpointBody(tc.body, tc.base)
		held := tinyStudent(99)
		if err == nil {
			err = nn.ApplyNamed(held.Params, got)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameStudent(t, name, held, trained)
	}
	var v4Raw bytes.Buffer
	if err := nn.WriteNamed(&v4Raw, all); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body []byte
		base *nn.ParamSet
	}{
		"relative without a base":    {relative, nil},
		"relative over another base": {relative, tinyStudent(22).Params},
		"version 4 delta body":       {append([]byte("STC\x7f"), relative[1+8:]...), base.Params},
		"version 4 raw body":         {v4Raw.Bytes(), base.Params},
	} {
		if _, err := DecodeCheckpointBody(tc.body, tc.base); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
}

// A delta+int8 checkpoint of a student trained a few key frames off its
// base — the resume-full fallback under an int8 envelope codec — carries
// every running statistic bit-exact: quantised, their deltas drove
// variances negative, and 1/√(var+ε) of a negative is NaN.
func TestInt8CheckpointKeepsRunningStatsExact(t *testing.T) {
	base := tinyStudent(21)
	d := NewDistiller(DefaultConfig(), base.Clone())
	frames := collect(t, 31, 40)
	for i := 0; i < len(frames); i += 10 {
		d.Train(frames[i], frames[i].Label)
	}
	if d.TotalSteps == 0 {
		t.Fatal("no distillation step ran; the comparison is vacuous")
	}
	ck := &CheckpointCodec{Base: base.Params, Codec: compress.Int8{}}
	body, err := ck.EncodeBody(d.Student.Params.All())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpointBody(body, base.Params)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, p := range got {
		if !nn.IsBNStat(p.Name) {
			continue
		}
		want := d.Student.Params.Get(p.Name).Value.Data
		for i, v := range p.Value.Data {
			if math.Float32bits(v) != math.Float32bits(want[i]) || v < 0 {
				t.Fatalf("%s[%d] = %v after the checkpoint, %v on the server", p.Name, i, v, want[i])
			}
			if v != base.Params.Get(p.Name).Value.Data[i] {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("training moved no statistic; the comparison is vacuous")
	}
}

// The base-hash check end to end over a real pipe session: a client holding
// the shared base receives a base-relative handshake checkpoint, a client
// without one gets an absolute body — a header byte per tensor over raw —
// from the very same server configuration, and a client whose base hash
// disagrees gets an absolute one too. The observer's Checkpoint call
// reports the size sent.
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
	absolute := func(actual, raw int) bool { return actual > raw-raw/20 && actual < raw+raw/20 }
	t.Run("legacy", func(t *testing.T) {
		actual, raw, cl := run(t, nil)
		if !absolute(actual, raw) {
			t.Fatalf("client without a base must get an absolute body (%dB vs raw %dB)", actual, raw)
		}
		if cl.Result.KeyFrames == 0 {
			t.Fatal("session did not train")
		}
	})
	t.Run("mismatched-base", func(t *testing.T) {
		actual, raw, _ := run(t, tinyStudent(77).Params)
		if !absolute(actual, raw) {
			t.Fatalf("mismatched base hash must downgrade to an absolute body (%dB vs raw %dB)", actual, raw)
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
