package serve

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// codecManager is resumeManager with an envelope codec and a compute
// backend — the configuration of one shard of a delta-aware fabric. All
// managers built from it share the tinyStudent(41) base checkpoint, as
// fabric shards share one Options template.
func codecManager(t *testing.T, journalDepth int, codecName, backend string) (*Manager, []video.Frame) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	cfg.Backend = backend
	m, err := NewManager(Options{
		Cfg:           cfg,
		Base:          tinyStudent(41),
		Teacher:       teacher.NewOracle(7),
		MaxSessions:   4,
		JournalDepth:  journalDepth,
		EnvelopeCodec: codecName,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 53))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]video.Frame, 12)
	for i := range frames {
		frames[i] = gen.Next()
	}
	return m, frames
}

// trainAndParkOn drives a session to a parked state on an existing manager.
func trainAndParkOn(t *testing.T, m *Manager, frames []video.Frame, keyFrames int) *protoClient {
	t.Helper()
	p := connect(t, m)
	p.frames = frames
	p.hello(7)
	for i := 0; i < keyFrames; i++ {
		p.keyFrame()
	}
	p.drop(m)
	return p
}

// A delta+raw envelope is bit-identical end to end: export → decode →
// materialize reproduces the exact student and Adam moments, and an import
// on a second shard rebuilds the same server state — while spending far
// fewer bytes on the student blob than the raw encoding would.
func TestSessionEnvelopeV2RoundTripBitExact(t *testing.T) {
	m, frames := codecManager(t, 8, "delta+raw", "")
	p := trainAndParkOn(t, m, frames, 3)

	// Keep a live pointer to the original server for comparison; envelope
	// encoding never mutates it.
	ds, err := m.store.Steal(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	orig := ds.State.(*core.Server)
	if err := m.store.Put(ds); err != nil {
		t.Fatal(err)
	}

	env, err := m.ExportParked(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env[:4], []byte("STH3")) {
		t.Fatalf("envelope magic %q, want STH3", env[:4])
	}

	dec, err := DecodeSessionEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CodecName != "delta+raw" {
		t.Fatalf("envelope codec %q, want delta+raw", dec.CodecName)
	}
	if dec.Params != nil {
		t.Fatal("params decoded before Materialize")
	}
	if err := dec.Materialize(m.opts.Base.Params); err != nil {
		t.Fatal(err)
	}
	paramsBitsEqual(t, "materialized student", dec.Params, orig.Distiller.Student.Params.All())

	oStep, oM, oV := adamOf(t, orig)
	if oStep == 0 {
		t.Fatal("test did not exercise the optimizer")
	}
	mm := paramsToMoments(dec.AdamM)
	vv := paramsToMoments(dec.AdamV)
	if len(mm) != len(oM) || len(vv) != len(oV) {
		t.Fatalf("moment counts %d/%d, want %d/%d", len(mm), len(vv), len(oM), len(oV))
	}
	for name, want := range oM {
		if mm[name] == nil || !bitsEqual(mm[name], want) {
			t.Errorf("adam m[%q] not bit-identical", name)
		}
	}
	for name, want := range oV {
		if vv[name] == nil || !bitsEqual(vv[name], want) {
			t.Errorf("adam v[%q] not bit-identical", name)
		}
	}

	// Import on a second delta-aware shard and compare the rebuilt server.
	dst, _ := codecManager(t, 8, "delta+raw", "")
	if err := dst.ImportParked(env); err != nil {
		t.Fatal(err)
	}
	ds2, err := dst.store.Steal(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := ds2.State.(*core.Server)
	paramsBitsEqual(t, "rebuilt student",
		rebuilt.Distiller.Student.Params.All(), orig.Distiller.Student.Params.All())
	rStep, rM, rV := adamOf(t, rebuilt)
	if rStep != oStep {
		t.Errorf("adam step %d, want %d", rStep, oStep)
	}
	for name, want := range oM {
		if rM[name] == nil || !bitsEqual(rM[name], want) {
			t.Errorf("rebuilt adam m[%q] not bit-identical", name)
		}
	}
	for name, want := range oV {
		if rV[name] == nil || !bitsEqual(rV[name], want) {
			t.Errorf("rebuilt adam v[%q] not bit-identical", name)
		}
	}
	if rebuilt.DiffSeq != orig.DiffSeq || rebuilt.LastKFSeq != orig.LastKFSeq ||
		rebuilt.Distiller.TotalSteps != orig.Distiller.TotalSteps {
		t.Error("sequence/distiller counters did not survive the v2 round trip")
	}

	// The student blob went base-relative: only 3 trained key frames
	// separate it from the base, so the model-state bytes must shrink.
	st := m.Stats()
	if st.EnvelopeBytes == 0 || st.EnvelopeCkBytes == 0 || st.EnvelopeCkBaseline == 0 {
		t.Fatalf("envelope byte accounting missing: %+v", st)
	}
	if st.EnvelopeCkBytes >= st.EnvelopeCkBaseline {
		t.Errorf("v2 model-state bytes %d did not shrink under baseline %d",
			st.EnvelopeCkBytes, st.EnvelopeCkBaseline)
	}
}

// Envelopes cross shards configured with different envelope codecs in both
// directions — the decoder resolves the codec from the envelope itself — and
// in both cases the session stays resumable with a journal replay.
func TestEnvelopeCrossCodecDecode(t *testing.T) {
	for _, tc := range []struct{ name, src, dst string }{
		{"raw-export-delta-import", "", "delta+int8"},
		{"delta-export-raw-import", "delta+raw", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, frames := codecManager(t, 8, tc.src, "")
			p := trainAndParkOn(t, src, frames, 3)
			env, err := src.ExportParked(p.sessionID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(env[:4], []byte("STH3")) {
				t.Fatalf("envelope magic %q, want STH3", env[:4])
			}
			dst, _ := codecManager(t, 8, tc.dst, "")
			if err := dst.ImportParked(env); err != nil {
				t.Fatal(err)
			}
			if ack := p.resume(dst, 1); ack.Status != transport.ResumeReplay || ack.NumDiffs != 2 {
				t.Fatalf("resume after %s → %s handoff: %+v", tc.src, tc.dst, ack)
			}
			for i := 0; i < 2; i++ {
				p.recv(transport.MsgStudentDiff)
			}
			p.shutdown()
		})
	}
}

// A handoff across compute backends is bitwise-stable: the state a
// reference-backend shard imports is exactly the state the vec-backend
// shard exported (backends differ in low-bit arithmetic during training,
// but the envelope must never add drift of its own), and the session keeps
// training on the importing shard. Run under -race this also exercises the
// import path against the importing manager's own session machinery.
func TestMixedBackendHandoff(t *testing.T) {
	src, frames := codecManager(t, 8, "delta+raw", "vec")
	p := trainAndParkOn(t, src, frames, 3)

	ds, err := src.store.Steal(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	orig := ds.State.(*core.Server)
	oStep, oM, oV := adamOf(t, orig)
	if err := src.store.Put(ds); err != nil {
		t.Fatal(err)
	}
	env, err := src.ExportParked(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}

	dst, _ := codecManager(t, 8, "delta+raw", "reference")
	if err := dst.ImportParked(env); err != nil {
		t.Fatal(err)
	}
	ds2, err := dst.store.Steal(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := ds2.State.(*core.Server)
	paramsBitsEqual(t, "vec→reference handoff student",
		rebuilt.Distiller.Student.Params.All(), orig.Distiller.Student.Params.All())
	rStep, rM, rV := adamOf(t, rebuilt)
	if rStep != oStep {
		t.Errorf("adam step %d, want %d", rStep, oStep)
	}
	for name, want := range oM {
		if rM[name] == nil || !bitsEqual(rM[name], want) {
			t.Errorf("adam m[%q] drifted across backends", name)
		}
	}
	for name, want := range oV {
		if rV[name] == nil || !bitsEqual(rV[name], want) {
			t.Errorf("adam v[%q] drifted across backends", name)
		}
	}
	if err := dst.store.Put(ds2); err != nil {
		t.Fatal(err)
	}

	// The session stays live: resume at the head and keep training on the
	// reference shard.
	if ack := p.resume(dst, 3); ack.Status != transport.ResumeReplay || ack.NumDiffs != 0 {
		t.Fatalf("resume on importing shard: %+v", ack)
	}
	if d := p.keyFrame(); d.Seq != 4 {
		t.Fatalf("post-handoff diff seq %d, want 4", d.Seq)
	}
	if d := p.keyFrame(); d.Seq != 5 {
		t.Fatalf("post-handoff diff seq %d, want 5", d.Seq)
	}
	p.shutdown()
}

// The new byte counters fold associatively through Stats.Add like every
// other field, so fabric aggregation cannot lose or double-count them.
func TestStatsFoldCarriesByteCounters(t *testing.T) {
	a := Stats{CheckpointBytes: 10, CheckpointBaseline: 100, EnvelopeBytes: 7, EnvelopeCkBytes: 5, EnvelopeCkBaseline: 50, DistillTime: time.Second}
	b := Stats{CheckpointBytes: 1, FullResendBytes: 3, FullResendBaseline: 30, EnvelopeCkBaseline: 1}
	got := a.Add(b)
	want := Stats{CheckpointBytes: 11, CheckpointBaseline: 100, FullResendBytes: 3, FullResendBaseline: 30,
		EnvelopeBytes: 7, EnvelopeCkBytes: 5, EnvelopeCkBaseline: 51, DistillTime: time.Second}
	if got != want {
		t.Errorf("fold: %+v want %+v", got, want)
	}
}
