package serve

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// bitsEqual compares two tensors bit-for-bit (plain float comparison would
// hide NaN payload differences; a handoff must be exact, not approximate).
func bitsEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func paramsBitsEqual(t *testing.T, what string, a, b []*nn.Parameter) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d params vs %d", what, len(a), len(b))
	}
	bm := map[string]*nn.Parameter{}
	for _, p := range b {
		bm[p.Name] = p
	}
	for _, p := range a {
		q := bm[p.Name]
		if q == nil {
			t.Fatalf("%s: %q missing", what, p.Name)
		}
		if !bitsEqual(p.Value, q.Value) {
			t.Errorf("%s: %q not bit-identical", what, p.Name)
		}
	}
}

func adamOf(t *testing.T, srv *core.Server) (int, map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
	t.Helper()
	adam, ok := srv.Distiller.Opt.(*optim.Adam)
	if !ok {
		t.Fatalf("optimizer is %T, want *optim.Adam", srv.Distiller.Opt)
	}
	return adam.ExportState()
}

// trainAndPark drives a session to a parked state with nontrivial weights,
// Adam moments, sequence counters and journal entries, and returns the
// manager holding it plus the client's protocol state.
func trainAndPark(t *testing.T, journalDepth, keyFrames int) (*Manager, *protoClient) {
	t.Helper()
	m, frames := resumeManager(t, journalDepth)
	p := connect(t, m)
	p.frames = frames
	p.hello(7)
	for i := 0; i < keyFrames; i++ {
		p.keyFrame()
	}
	p.drop(m)
	return m, p
}

// With no EnvelopeCodec the envelope is a faithful, bit-identical
// serialization under the raw codec: student weights, Adam moments and
// step, diff/key-frame counters, epochs and the full journal survive export
// → decode → import on a different manager. This is the invariant
// cross-shard handoff rests on — the paper's per-stream distillation state
// must not drift when a session changes shards.
func TestSessionEnvelopeRoundTrip(t *testing.T) {
	m, p := trainAndPark(t, 8, 3)

	// Keep live pointers to the original for comparison; envelope encoding
	// never mutates it.
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

	dec, err := DecodeSessionEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CodecName != "raw" {
		t.Fatalf("envelope codec %q, want raw", dec.CodecName)
	}
	if err := dec.Materialize(m.opts.Base.Params); err != nil {
		t.Fatal(err)
	}
	if dec.ID != ds.ID || dec.Epoch != ds.Epoch || dec.AltEpoch != ds.AltEpoch || dec.LastSeq != ds.LastSeq {
		t.Errorf("identity fields: got %d/%d/%d/%d", dec.ID, dec.Epoch, dec.AltEpoch, dec.LastSeq)
	}
	if dec.DiffSeq != orig.DiffSeq || dec.LastKFSeq != orig.LastKFSeq {
		t.Errorf("seq counters: got %d/%d want %d/%d", dec.DiffSeq, dec.LastKFSeq, orig.DiffSeq, orig.LastKFSeq)
	}
	paramsBitsEqual(t, "decoded student", dec.Params, orig.Distiller.Student.Params.All())

	// Import on a second manager (same base checkpoint, as fabric shards
	// share one Options template) and compare the rebuilt server.
	dst, _ := resumeManager(t, 8)
	if err := dst.ImportParked(env); err != nil {
		t.Fatal(err)
	}
	ds2, err := dst.store.Steal(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := ds2.State.(*core.Server)
	if rebuilt.DiffSeq != orig.DiffSeq || rebuilt.LastKFSeq != orig.LastKFSeq {
		t.Errorf("rebuilt seq counters: %d/%d want %d/%d",
			rebuilt.DiffSeq, rebuilt.LastKFSeq, orig.DiffSeq, orig.LastKFSeq)
	}
	paramsBitsEqual(t, "rebuilt student",
		rebuilt.Distiller.Student.Params.All(), orig.Distiller.Student.Params.All())

	oStep, oM, oV := adamOf(t, orig)
	rStep, rM, rV := adamOf(t, rebuilt)
	if oStep == 0 {
		t.Fatal("test did not exercise the optimizer (no Adam steps)")
	}
	if rStep != oStep {
		t.Errorf("adam step: %d want %d", rStep, oStep)
	}
	for _, pair := range []struct {
		name string
		a, b map[string]*tensor.Tensor
	}{{"m", oM, rM}, {"v", oV, rV}} {
		if len(pair.a) != len(pair.b) {
			t.Fatalf("adam %s: %d tensors vs %d", pair.name, len(pair.a), len(pair.b))
		}
		for name, av := range pair.a {
			bv := pair.b[name]
			if bv == nil || !bitsEqual(av, bv) {
				t.Errorf("adam %s[%q] not bit-identical", pair.name, name)
			}
		}
	}

	if orig.Distiller.TotalSteps == 0 {
		t.Fatal("no distillation steps recorded")
	}
	if rebuilt.Distiller.TotalSteps != orig.Distiller.TotalSteps ||
		rebuilt.Distiller.TotalTrains != orig.Distiller.TotalTrains ||
		rebuilt.Distiller.TotalStepTime != orig.Distiller.TotalStepTime {
		t.Errorf("distiller counters did not survive the round trip")
	}

	origEntries := ds.Journal.All()
	gotEntries := ds2.Journal.All()
	if len(origEntries) == 0 || len(gotEntries) != len(origEntries) {
		t.Fatalf("journal: %d entries vs %d", len(gotEntries), len(origEntries))
	}
	for i, e := range origEntries {
		if gotEntries[i].Seq != e.Seq || !bytes.Equal(gotEntries[i].Body, e.Body) {
			t.Errorf("journal entry %d differs", i)
		}
	}
}

// An imported session is a first-class parked session: the client resumes
// it on the importing manager with a journal replay (no full checkpoint)
// and keeps streaming — the end-to-end contract of a cross-shard handoff.
func TestImportParkedResumesWithReplay(t *testing.T) {
	m, p := trainAndPark(t, 8, 3)

	env, err := m.ExportParked(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	if m.SessionState(p.sessionID) != SessionNone {
		t.Fatal("export left the session behind")
	}

	dst, frames := resumeManager(t, 8)
	if err := dst.ImportParked(env); err != nil {
		t.Fatal(err)
	}
	if dst.SessionState(p.sessionID) != SessionParked {
		t.Fatal("import did not park the session")
	}
	p.frames = frames

	// The client applied diff 1 of 3: the replay must cover exactly 2 and 3.
	ack := p.resume(dst, 1)
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("resume status %v, want replay", ack.Status)
	}
	if ack.NumDiffs != 2 {
		t.Fatalf("replayed %d diffs, want 2", ack.NumDiffs)
	}
	for i := 0; i < int(ack.NumDiffs); i++ {
		p.recv(transport.MsgStudentDiff)
	}
	d := p.keyFrame()
	if d.Seq != 4 {
		t.Fatalf("post-handoff diff seq %d, want 4", d.Seq)
	}
	p.shutdown()

	st := dst.Stats()
	if st.Resumed != 1 || st.ResumeReplays != 1 || st.ResumeFulls != 0 {
		t.Errorf("dst stats %+v, want one replay resume", st)
	}
}

// Corrupt envelopes must fail the decode, never panic the importer.
func TestDecodeSessionEnvelopeRejectsCorrupt(t *testing.T) {
	m, p := trainAndPark(t, 4, 2)
	env, err := m.ExportParked(p.sessionID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSessionEnvelope(env[:len(env)-3]); err == nil {
		t.Error("truncated envelope accepted")
	}
	if _, err := DecodeSessionEnvelope(append(append([]byte(nil), env...), 0xEE)); err == nil {
		t.Error("padded envelope accepted")
	}
	bad := append([]byte(nil), env...)
	bad[0] ^= 0xFF
	if _, err := DecodeSessionEnvelope(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// Stats folding is associative and total — shards start empty, so the fold
// must tolerate zero-session operands, and a router must get the same
// aggregate regardless of fold order (satellite: no divide-by-zero, no
// double counting, means derived from summed numerators/denominators).
func TestStatsFoldAssociative(t *testing.T) {
	var zero Stats
	if zero.MeanDistillSteps() != 0 || zero.MeanStepLatency() != 0 {
		t.Fatal("zero-session means must be 0")
	}
	a := Stats{SessionsServed: 2, KeyFrames: 10, DistillSteps: 40, DistillTime: 4 * time.Second}
	b := Stats{SessionsServed: 1, KeyFrames: 5, DistillSteps: 0}
	c := Stats{KeyFrames: 0, DistillSteps: 0} // an idle shard

	ab_c := a.Add(b).Add(c)
	a_bc := a.Add(b.Add(c))
	if ab_c != a_bc {
		t.Errorf("fold not associative: %+v vs %+v", ab_c, a_bc)
	}
	if got := ab_c.MeanDistillSteps(); got != 40.0/15.0 {
		t.Errorf("folded mean steps %.4f, want %.4f", got, 40.0/15.0)
	}
	if got := a.Add(zero); got != a {
		t.Errorf("zero is not the fold identity: %+v", got)
	}
	if got := c.Add(c).MeanDistillSteps(); got != 0 {
		t.Errorf("idle fold mean %v, want 0", got)
	}
}
