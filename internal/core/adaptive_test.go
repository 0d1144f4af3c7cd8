package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// encodeUnder is transport.EncodeStudentDiff under a link decision.
func encodeUnder(tb testing.TB, d transport.StudentDiff, dec netsim.LinkDecision) []byte {
	tb.Helper()
	d.State, d.StrideScale, d.Codec = dec.State, dec.StrideScale, dec.Codec
	body, err := transport.EncodeStudentDiff(d)
	if err != nil {
		tb.Fatalf("%s: encode: %v", dec.Codec, err)
	}
	return body
}

// Every decision a policy can take travels in the one diff body, and the
// benchmark's DecodeAdaptiveDiff reads it back out.
func TestAdaptiveDiffRoundTrip(t *testing.T) {
	student := tinyStudent(17)
	// Small running variances are what a per-tensor int8 scale flushes to
	// zero; with a channel at 1e-4 beside one at 1 a round trip of the
	// statistics through the codec could not have been exact.
	student.Params.Get("sb5.bn.rvar").Value.Data[0] = 1e-4
	diff := transport.StudentDiff{
		FrameIndex: 42,
		Metric:     0.625,
		Params:     nn.TrainableSubset(student.Params),
		Seq:        7,
	}
	for _, dec := range []netsim.LinkDecision{
		{State: netsim.LinkClear, Codec: "raw", StrideScale: 1},
		{State: netsim.LinkDegraded, Codec: "int8", StrideScale: 1.5, FECGroup: 8},
		{State: netsim.LinkCritical, Codec: "prune25", StrideScale: 2, FECGroup: 4},
	} {
		got, gotDec, err := DecodeAdaptiveDiff(encodeUnder(t, diff, dec))
		if err == nil {
			err = got.Resolve(student.Params)
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", dec.Codec, err)
		}
		if got.FrameIndex != diff.FrameIndex || got.Metric != diff.Metric || got.Seq != diff.Seq {
			t.Fatalf("%s: header mismatch: %+v", dec.Codec, got)
		}
		if gotDec.State != dec.State || gotDec.Codec != dec.Codec {
			t.Fatalf("%s: decision mismatch: %+v", dec.Codec, gotDec)
		}
		if math.Abs(got.StrideScale-dec.StrideScale) > 1e-6 || gotDec.StrideScale != got.StrideScale {
			t.Fatalf("%s: stride scale %v (decision %v), want %v", dec.Codec, got.StrideScale, gotDec.StrideScale, dec.StrideScale)
		}
		if len(got.Params) != len(diff.Params) {
			t.Fatalf("%s: %d params, want %d", dec.Codec, len(got.Params), len(diff.Params))
		}
		// raw must be bit-exact, and so must the statistics under every
		// codec; lossy codecs keep the weights close.
		stats := 0
		for _, p := range got.Params {
			want := student.Params.Get(p.Name)
			if want == nil || !want.Value.SameShape(p.Value) {
				t.Fatalf("%s: decoded an unknown or misshapen %s", dec.Codec, p.Name)
			}
			if dec.Codec != "raw" && !nn.IsBNStat(p.Name) {
				continue
			}
			for j := range p.Value.Data {
				if p.Value.Data[j] != want.Value.Data[j] {
					t.Fatalf("%s: param %s differs at %d", dec.Codec, p.Name, j)
				}
			}
			if nn.IsBNStat(p.Name) {
				stats++
			}
		}
		if stats == 0 {
			t.Fatalf("%s: the diff carried no statistics", dec.Codec)
		}
	}
}

func TestAdaptiveDiffRejectsDeltaAndGarbage(t *testing.T) {
	diff := transport.StudentDiff{Seq: 1, Params: nn.TrainableSubset(tinyStudent(3).Params)}
	for _, codec := range []string{"delta+int8", "nope"} {
		diff.Codec = codec
		if _, err := transport.EncodeStudentDiff(diff); err == nil {
			t.Fatalf("codec %q accepted", codec)
		}
	}
	if _, _, err := DecodeAdaptiveDiff(nil); err == nil {
		t.Fatal("empty body decoded")
	}
	good := encodeUnder(t, diff, netsim.LinkDecision{Codec: "raw", StrideScale: 1})
	bad := append([]byte(nil), good...)
	clear(bad[12:20])
	if _, _, err := DecodeAdaptiveDiff(bad); err == nil {
		t.Fatal("unnumbered diff decoded")
	}
	if _, _, err := DecodeAdaptiveDiff(good[:9]); err == nil {
		t.Fatal("truncated body decoded")
	}
}

// A session with an active link policy: the server encodes each diff under
// the policy's decision, and the client — told nothing — decodes it and
// folds the stride scale into Algorithm 2.
func TestAdaptiveSessionAppliesPolicy(t *testing.T) {
	cfg := DefaultConfig()
	frames := collect(t, 31, 60)

	clientConn, serverConn := transport.Pipe(4, nil)
	student := tinyStudent(21)
	srv := NewServer(cfg, student.Clone(), teacher.NewOracle(3))
	// A static "critical" policy: every diff rides int8 with a 2x stride
	// scale, Loop must read the link state off the conn it is handed and
	// apply the policy's FEC choice to that same conn.
	srv.Policy = lossPolicy{t: t, want: 0.1, dec: netsim.LinkDecision{
		State: netsim.LinkCritical, Codec: "int8", StrideScale: 2, FECGroup: 4}}
	link := &fakeLink{Conn: serverConn, obs: netsim.LinkObservation{LossRate: 0.1}}
	var decisions, transitions int
	srv.Observer = policyCounter{n: &decisions, changed: &transitions}

	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	go func() {
		defer wg.Done()
		srvErr = srv.Serve(link)
	}()
	cl := &Client{Cfg: cfg, Student: tinyStudent(99), EvalTeacher: teacher.NewOracle(3)}
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err != nil {
		t.Fatalf("client: %v", err)
	}
	clientConn.Close()
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if cl.Result.KeyFrames < 2 {
		t.Fatalf("expected multiple key frames, got %d", cl.Result.KeyFrames)
	}
	if transitions != 0 {
		t.Errorf("static policy reported %d state transitions", transitions)
	}
	if len(link.fec) != cl.Result.KeyFrames || decisions != cl.Result.KeyFrames {
		t.Fatalf("SetFECGroup called %d times, observer saw %d decisions, for %d key frames",
			len(link.fec), decisions, cl.Result.KeyFrames)
	}
	for _, k := range link.fec {
		if k != 4 {
			t.Errorf("SetFECGroup(%d), want 4", k)
		}
	}
	// With a 2x stride scale the stride trace must outrun the unscaled
	// session's on the same frames.
	plain, _ := runSession(t, cfg, frames)
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	if len(cl.Result.StrideTrace) == 0 || len(plain.Result.StrideTrace) == 0 {
		t.Fatal("empty stride traces")
	}
	scaled := sum(cl.Result.StrideTrace) / float64(len(cl.Result.StrideTrace))
	base := sum(plain.Result.StrideTrace) / float64(len(plain.Result.StrideTrace))
	if scaled <= base {
		t.Fatalf("mean stride %v not above unscaled %v despite 2x scale", scaled, base)
	}
}

// fakeLink is the smallest measuredLink: a conn reporting a fixed
// observation and recording every FEC retune.
type fakeLink struct {
	transport.Conn
	obs netsim.LinkObservation
	fec []int
}

func (l *fakeLink) LinkObservation() netsim.LinkObservation { return l.obs }
func (l *fakeLink) SetFECGroup(k int)                       { l.fec = append(l.fec, k) }

// lossPolicy is a static policy that also checks the observation it is
// shown is the conn's.
type lossPolicy struct {
	t    *testing.T
	want float64
	dec  netsim.LinkDecision
}

func (p lossPolicy) Name() string                     { return "test-critical" }
func (p lossPolicy) Decisions() []netsim.LinkDecision { return []netsim.LinkDecision{p.dec} }
func (p lossPolicy) Decide(obs netsim.LinkObservation) netsim.LinkDecision {
	if obs.LossRate != p.want {
		p.t.Errorf("policy saw loss %v, want the conn's %v", obs.LossRate, p.want)
	}
	return p.dec
}

// policyCounter is a partial SessionObserver counting policy decisions and
// how many of them were reported as state transitions.
type policyCounter struct {
	nopObserver
	n, changed *int
}

func (o policyCounter) Policy(_ netsim.LinkDecision, changed bool) {
	*o.n++
	if changed {
		*o.changed++
	}
}

// PolicyByName must refuse, at configuration time, any policy that would
// otherwise kill every session at its first key frame.
func TestPolicyByNameValidatesCodecs(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"adaptive", true},
		{"static:raw", true},
		{"static:int8", true},
		{"static:prune25", true},
		{"static:nope", false},
		{"static:bf16", false}, // a codec name until the handoff envelope went
		{"static:", false},
		{"static:delta+int8", false},
		{"static:prune0", false},
		{"no-such-policy", false},
		{"", false},
	} {
		p, err := PolicyByName(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("PolicyByName(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && p == nil {
			t.Errorf("PolicyByName(%q) returned no policy", tc.spec)
		}
	}
}

// FuzzDecodeAdaptiveDiff holds the benchmark's DecodeAdaptiveDiff to what
// benchmark/taps.go needs of it: on any bytes it accepts and rejects what
// transport.DecodeStudentDiff does, returns the same diff, mirrors the
// diff's decision, and leaves a diff that resolves as the decoder's does.
// The body's own invariants are transport's FuzzDecodeStudentDiff.
func FuzzDecodeAdaptiveDiff(f *testing.F) {
	for _, b := range adaptiveSeeds(f) {
		f.Add(b.body)
	}
	held := adaptiveSeedStudent().Params
	f.Fuzz(func(t *testing.T, b []byte) {
		d, dec, err := DecodeAdaptiveDiff(b)
		want, werr := transport.DecodeStudentDiff(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("shim err %v, decoder err %v", err, werr)
		}
		if err != nil {
			return
		}
		if d.FrameIndex != want.FrameIndex || math.Float64bits(d.Metric) != math.Float64bits(want.Metric) || d.Seq != want.Seq ||
			d.Relative != want.Relative || d.RefHash != want.RefHash || !bytes.Equal(d.Payload, want.Payload) || len(d.Params) != len(want.Params) {
			t.Fatalf("shim decoded %+v, decoder %+v", d, want)
		}
		if dec.State != d.State || dec.Codec != d.Codec || dec.StrideScale != d.StrideScale {
			t.Fatalf("decision %+v beside diff %v/%q/%v", dec, d.State, d.Codec, d.StrideScale)
		}
		if err, werr := d.Resolve(held), want.Resolve(held); (err == nil) != (werr == nil) {
			t.Fatalf("shim's diff resolves with %v, decoder's with %v", err, werr)
		}
	})
}

type adaptiveSeed struct {
	what string
	body []byte
	ok   bool
}

// adaptiveSeedStudent is the student the seeds' diffs are relative to.
func adaptiveSeedStudent() *nn.Student { return tinyStudent(3) }

// adaptiveSeeds is the fuzz corpus and, through TestAdaptiveSeedsVerdicts,
// a table of what decode-then-resolve must accept and reject: the diffs a
// session sends under each policy codec, and ways each can be cut, padded,
// misnamed or replayed from an earlier protocol.
func adaptiveSeeds(tb testing.TB) []adaptiveSeed {
	held := adaptiveSeedStudent()
	trained := held.Clone()
	for _, p := range nn.TrainableSubset(trained.Params) {
		for i := range p.Value.Data {
			p.Value.Data[i] *= 1 + 1e-3*float32(i%7-3)
		}
	}
	diff := transport.StudentDiff{FrameIndex: 9, Metric: 0.5, Seq: 3, Params: nn.TrainableSubset(trained.Params)}
	encode := func(d transport.StudentDiff, codec string) []byte {
		return encodeUnder(tb, d, netsim.LinkDecision{State: netsim.LinkDegraded, Codec: codec, StrideScale: 1.5})
	}
	var seeds []adaptiveSeed
	for _, codec := range []string{"raw", "int8", "prune25"} {
		body := encode(diff, codec)
		seeds = append(seeds,
			adaptiveSeed{codec, body, true},
			adaptiveSeed{codec + " truncated", body[:len(body)/2], false},
			adaptiveSeed{codec + " trailing byte", append(append([]byte(nil), body...), 0xEE), false})
	}
	// The relative raw body with its decision — state, float32 stride
	// scale, codec name — rewritten and everything after the name intact,
	// so each of these can only be rejected for the field it corrupts.
	diff.Ref = held.Params
	relative := encode(diff, "raw")
	const nameAt = 4 + 8 + 8 + 1 + 4
	section := relative[nameAt+1+len("raw"):]
	with := func(scale uint32, name string) []byte {
		b := binary.LittleEndian.AppendUint32(append([]byte(nil), relative[:nameAt-4]...), scale)
		return append(append(append(b, byte(len(name))), name...), section...)
	}
	one := math.Float32bits(1)
	// What a policy-running server sent before this body: version 5's lossy
	// body — this head, then absolute weights under the codec and the
	// statistics as nn.WriteNamed — and the version-3 adaptive envelope —
	// magic 0xAD, version, state, stride scale, codec name — in front of the
	// plain body under raw, and in front of frame index, metric, seq and the
	// lossy tail under int8.
	lossy := seeds[3].body
	weights, stats := nn.SplitBNStats(diff.Params)
	var lossyTail bytes.Buffer
	compress.Int8{}.Encode(&lossyTail, weights)
	nn.WriteNamed(&lossyTail, stats)
	envelope := func(name string, body []byte) []byte {
		b := append([]byte{0xAD, 3, byte(netsim.LinkDegraded)}, relative[21:nameAt]...)
		return append(append(append(b, byte(len(name))), name...), body...)
	}
	const hashAt = nameAt + 1 + len("raw") + 1
	const countAt = hashAt + 8 + 4 + 1 + len("raw") // delta magic, inner name
	mutate := func(edit func(b []byte) []byte) []byte { return edit(append([]byte(nil), relative...)) }
	seeds = append(seeds,
		adaptiveSeed{"version 3 raw envelope", envelope("raw", append(append([]byte(nil), relative[:20]...), section...)), false},
		adaptiveSeed{"version 3 int8 envelope", envelope("int8", append(append([]byte(nil), lossy[:20]...), lossyTail.Bytes()...)), false},
		adaptiveSeed{"relative raw", relative, true},
		adaptiveSeed{"reference hash mismatch", mutate(func(b []byte) []byte { b[hashAt] ^= 1; return b }), false},
		adaptiveSeed{"tensor count past the body", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[countAt:], 1<<19); return b }), false},
		adaptiveSeed{"parameter stream cut short", mutate(func(b []byte) []byte { return b[:len(b)-4-1] }), false},
		adaptiveSeed{"unknown section flag", mutate(func(b []byte) []byte { b[hashAt-1] |= 2; return b }), false},
		adaptiveSeed{"rewritten head", with(one, "raw"), true},
		adaptiveSeed{"delta name", with(one, "delta+raw"), false},
		adaptiveSeed{"empty name", with(one, ""), false},
		adaptiveSeed{"unknown name", with(one, "nope"), false},
		adaptiveSeed{"retired bf16 name", with(one, "bf16"), false},
		adaptiveSeed{"NaN stride scale", with(0x7fc00000, "raw"), false},
		adaptiveSeed{"zero stride scale", with(0, "raw"), false},
		adaptiveSeed{"negative stride scale", with(math.Float32bits(-2), "raw"), false},
		adaptiveSeed{"empty", nil, false},
		adaptiveSeed{"version 5 int8 body", append(append([]byte(nil), lossy[:nameAt+1+len("int8")]...), lossyTail.Bytes()...), false})
	// Relative under the lossy codecs, and each with its reference hash
	// flipped.
	for _, codec := range []string{"int8", "prune25"} {
		body := encode(diff, codec)
		wrong := append([]byte(nil), body...)
		wrong[nameAt+1+len(codec)+1] ^= 1
		seeds = append(seeds,
			adaptiveSeed{"relative " + codec, body, true},
			adaptiveSeed{"relative " + codec + ", reference hash mismatch", wrong, false})
	}
	return seeds
}

func TestAdaptiveSeedsVerdicts(t *testing.T) {
	held := adaptiveSeedStudent().Params
	for _, s := range adaptiveSeeds(t) {
		d, _, err := DecodeAdaptiveDiff(s.body)
		if err == nil {
			err = d.Resolve(held)
		}
		if (err == nil) != s.ok {
			t.Errorf("%s: err = %v, want accepted=%v", s.what, err, s.ok)
		}
	}
}
