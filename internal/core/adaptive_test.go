package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/transport"
)

// encodeUnder is transport.EncodeStudentDiff under a codec.
func encodeUnder(tb testing.TB, d transport.StudentDiff, codec string) []byte {
	tb.Helper()
	d.Codec = codec
	body, err := transport.EncodeStudentDiff(d)
	if err != nil {
		tb.Fatalf("%s: encode: %v", codec, err)
	}
	return body
}

// Every diff codec travels in the one diff body, and the benchmark's
// DecodeAdaptiveDiff reads it back out.
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
	for _, codec := range []string{"raw", "int8", "prune25"} {
		got, gotDec, err := DecodeAdaptiveDiff(encodeUnder(t, diff, codec))
		if err == nil {
			err = got.Resolve(student.Params)
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", codec, err)
		}
		if got.FrameIndex != diff.FrameIndex || got.Metric != diff.Metric || got.Seq != diff.Seq {
			t.Fatalf("%s: header mismatch: %+v", codec, got)
		}
		if gotDec.Codec != codec || got.Codec != codec {
			t.Fatalf("%s: codec mismatch: %+v beside %q", codec, gotDec, got.Codec)
		}
		if len(got.Params) != len(diff.Params) {
			t.Fatalf("%s: %d params, want %d", codec, len(got.Params), len(diff.Params))
		}
		// raw must be bit-exact, and so must the statistics under every
		// codec; lossy codecs keep the weights close.
		stats := 0
		for _, p := range got.Params {
			want := student.Params.Get(p.Name)
			if want == nil || !want.Value.SameShape(p.Value) {
				t.Fatalf("%s: decoded an unknown or misshapen %s", codec, p.Name)
			}
			if codec != "raw" && !nn.IsBNStat(p.Name) {
				continue
			}
			for j := range p.Value.Data {
				if p.Value.Data[j] != want.Value.Data[j] {
					t.Fatalf("%s: param %s differs at %d", codec, p.Name, j)
				}
			}
			if nn.IsBNStat(p.Name) {
				stats++
			}
		}
		if stats == 0 {
			t.Fatalf("%s: the diff carried no statistics", codec)
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
	good := encodeUnder(t, diff, "raw")
	bad := append([]byte(nil), good...)
	clear(bad[12:20])
	if _, _, err := DecodeAdaptiveDiff(bad); err == nil {
		t.Fatal("unnumbered diff decoded")
	}
	if _, _, err := DecodeAdaptiveDiff(good[:9]); err == nil {
		t.Fatal("truncated body decoded")
	}
}

// FuzzDecodeAdaptiveDiff holds the benchmark's DecodeAdaptiveDiff to what
// benchmark/taps.go needs of it: on any bytes it accepts and rejects what
// transport.DecodeStudentDiff does, returns the same diff, mirrors the
// diff's codec, and leaves a diff that resolves as the decoder's does.
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
		if dec.Codec != d.Codec {
			t.Fatalf("decision %+v beside diff codec %q", dec, d.Codec)
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
// session sends under each diff codec, and ways each can be cut, padded,
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
		return encodeUnder(tb, d, codec)
	}
	var seeds []adaptiveSeed
	for _, codec := range []string{"raw", "int8", "prune25"} {
		body := encode(diff, codec)
		seeds = append(seeds,
			adaptiveSeed{codec, body, true},
			adaptiveSeed{codec + " truncated", body[:len(body)/2], false},
			adaptiveSeed{codec + " trailing byte", append(append([]byte(nil), body...), 0xEE), false})
	}
	// The relative raw body with its codec name rewritten and everything
	// after the name intact, so each of these can only be rejected for the
	// name.
	diff.Ref = held.Params
	relative := encode(diff, "raw")
	const nameAt = 4 + 8 + 8
	section := relative[nameAt+1+len("raw"):]
	with := func(name string) []byte {
		b := append(append([]byte(nil), relative[:nameAt]...), byte(len(name)))
		return append(append(b, name...), section...)
	}
	// What a policy-running server sent before this body. Versions 5 to 7
	// put the link decision — a state byte (0 clear, 1 degraded, 2
	// critical) and a float32 stride scale — between seq and the codec
	// name; v7 turns a body into that form. Version 5's lossy body was that
	// head, then absolute weights under the codec and the statistics as
	// nn.WriteNamed. The version-3 adaptive envelope — magic 0xAD, version,
	// state, stride scale, codec name — went in front of the plain body
	// under raw, and in front of frame index, metric, seq and the lossy tail
	// under int8.
	v7 := func(body []byte, state byte, scale float32) []byte {
		b := append(append([]byte(nil), body[:nameAt]...), state)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(scale))
		return append(b, body[nameAt:]...)
	}
	lossy := seeds[3].body
	weights, stats := nn.SplitBNStats(diff.Params)
	var lossyTail bytes.Buffer
	compress.Int8{}.Encode(&lossyTail, weights)
	nn.WriteNamed(&lossyTail, stats)
	envelope := func(name string, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{0xAD, 3, 1}, math.Float32bits(1.5))
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
		adaptiveSeed{"rewritten head", with("raw"), true},
		adaptiveSeed{"delta name", with("delta+raw"), false},
		adaptiveSeed{"empty name", with(""), false},
		adaptiveSeed{"unknown name", with("nope"), false},
		adaptiveSeed{"retired bf16 name", with("bf16"), false},
		adaptiveSeed{"version 7 clear raw body", v7(relative, 0, 1), false},
		adaptiveSeed{"version 7 degraded int8 body", v7(encode(diff, "int8"), 1, 1.5), false},
		adaptiveSeed{"version 7 critical int8 body", v7(encode(diff, "int8"), 2, 2), false},
		adaptiveSeed{"empty", nil, false},
		adaptiveSeed{"version 5 int8 body", append(v7(lossy, 1, 1.5)[:nameAt+5+1+len("int8")], lossyTail.Bytes()...), false})
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
