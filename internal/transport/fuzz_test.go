package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Fuzz targets for the wire protocol: every decoder must survive arbitrary
// bytes without panicking or over-allocating, and every value that decodes
// successfully must re-encode/re-decode to the same value (round-trip
// stability). CI runs each target as a short -fuzz smoke on top of the seed
// corpus below; `go test` alone replays the seeds as regular tests.

func seedKeyFrame() KeyFrame {
	img := tensor.New(3, 8, 8)
	for i := range img.Data {
		img.Data[i] = float32(i) / 7
	}
	label := make([]int32, 8*8)
	for i := range label {
		label[i] = int32(i / 20)
	}
	return KeyFrame{FrameIndex: 7, Image: img, Label: label, Seq: 3}
}

// withLabelRuns is seedKeyFrame's body with its label section replaced by
// the given (class, run) pairs.
func withLabelRuns(pairs ...uint64) []byte {
	kf := seedKeyFrame()
	kf.Label = nil
	body := EncodeKeyFrame(kf)
	body = body[:len(body)-4-8] // drop the empty label section and Seq
	var runs []byte
	for _, v := range pairs {
		runs = binary.AppendUvarint(runs, v)
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(runs)))
	body = append(body, runs...)
	return binary.LittleEndian.AppendUint64(body, 9)
}

// v8KeyFrame is seedKeyFrame's body as protocol version 8 sent it: planes
// of fixed-width tagged distances from the gradient prediction.
func v8KeyFrame() []byte {
	b, err := hex.DecodeString(
		"07000000030300000008000000080000000215181f8e000000b09224097f0000808024499272dbb6294992a424499292" +
			"24492b4992fc0f0000e05bdbb6edb66d9b91244926499278244962dbb6cd000000814692642549b29124d948926c2449" +
			"5692245192244900a42249529124a9499224b76d5b9124a94892d424492a922401a0922449000080a424491200001228" +
			"4992d491242949927424494a922425499292244947920402131620530000002b4992088624c994241992245392644892" +
			"4c499229495224491209098154922409098150244912098190549224098190502449128190905492242b495223496a24" +
			"499524a991243592a446922449928404800400021520400000002b49920c4a92242449129224094d92842449429224a1" +
			"4992902449421659922449b2c84292249945166892248b2c484992245990254992cc822c344992055924080000000014" +
			"0114021403040300000000000000")
	if err != nil {
		panic(err)
	}
	return b
}

// v6KeyFrame is k's body as protocol version 6 sent it: the image as raw
// float32, without a label.
func v6KeyFrame(k KeyFrame) []byte {
	b := binary.LittleEndian.AppendUint32(nil, k.FrameIndex)
	b = append(b, byte(k.Image.Rank()))
	for _, d := range k.Image.Shape() {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	for _, v := range k.Image.Data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint64(b, k.Seq)
}

func FuzzDecodeKeyFrame(f *testing.F) {
	f.Add(EncodeKeyFrame(seedKeyFrame()))
	kf := seedKeyFrame()
	kf.Label = nil
	f.Add(EncodeKeyFrame(kf))
	f.Add([]byte{})
	f.Add(withLabelRuns(2, 64)) // one run, the whole image
	numbered := withLabelRuns(2, 64)
	seqAt := len(numbered) - 8
	// The first plane's predictor byte and length, and where the second
	// plane begins.
	const plane0 = keyFrameHead
	claimed, k := binary.Uvarint(numbered[plane0+1:])
	plane1 := plane0 + 1 + k + int(claimed)
	edit := func(at int, v uint32) []byte {
		b := bytes.Clone(numbered)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	rank4, wide := bytes.Clone(numbered), bytes.Clone(numbered)
	rank4[4] = 4
	wide[plane0+1+k] |= 63 // values of up to 63 bits
	g, err := video.NewGenerator(video.CategoryConfig(video.Categories[0], 1))
	if err != nil {
		f.Fatal(err)
	}
	rendered := KeyFrame{FrameIndex: 1, Image: g.Next().Image, Seq: 1}
	f.Add(EncodeKeyFrame(rendered))
	underABit := bytes.Clone(numbered)
	underABit[plane0+1] = 8*8/8 - 1
	unknown := bytes.Clone(numbered)
	unknown[plane0] = 2
	mustReject := [][]byte{
		withLabelRuns(2, 63),                                      // runs stop short of the image
		withLabelRuns(2, 60, 1, 5),                                // a run past the end
		withLabelRuns(2, 1<<40),                                   // a count nothing backs
		withLabelRuns(2, 64, 3),                                   // a class without its run
		withLabelRuns(2, 0, 2, 64),                                // an empty run
		withLabelRuns(1<<33, 64),                                  // a class wider than int32
		withLabelRuns(2, 32, 1, 32, 0),                            // bytes after the last full pair
		numbered[:seqAt],                                          // no Seq: an unnumbered key frame
		numbered[:seqAt+7],                                        // a Seq cut to 7 bytes
		append(bytes.Clone(numbered), 0),                          // 9 bytes after the label
		append(bytes.Clone(numbered[:seqAt]), make([]byte, 8)...), // Seq 0
		wide,                       // a plane's values past 32 bits
		underABit,                  // a payload under a bit a pixel
		numbered[:plane1+1+k+3],    // truncated inside the second plane
		edit(5+4, 1<<16),           // a shape the planes cannot back
		rank4,                      // an image that is not CHW
		v6KeyFrame(rendered),       // the raw float32 body of version 6
		v6KeyFrame(seedKeyFrame()), // and of the seed image
		numbered[:keyFrameHead+2],  // a plane's length without its payload
		unknown,                    // a predictor no encoder names
		v8KeyFrame(),               // the seed key frame as version 8 sent it
	}
	for _, b := range mustReject {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := DecodeKeyFrame(data)
		for _, b := range mustReject {
			if err == nil && bytes.Equal(b, data) {
				t.Fatalf("malformed key frame accepted: % x", data[max(len(data)-24, 0):])
			}
		}
		if err == nil && k.Seq == 0 {
			t.Fatal("key frame with Seq 0 accepted")
		}
		if err != nil {
			return
		}
		if k.Label != nil && len(k.Label)*k.Image.Dim(0) != k.Image.Len() {
			t.Fatalf("label of %d classes beside a %v image", len(k.Label), k.Image.Shape())
		}
		re := EncodeKeyFrame(k)
		k2, err := DecodeKeyFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded keyframe failed: %v", err)
		}
		if k2.FrameIndex != k.FrameIndex || k2.Seq != k.Seq || !k2.Image.SameShape(k.Image) || len(k2.Label) != len(k.Label) {
			t.Fatalf("keyframe round trip mismatch: %v vs %v", k2, k)
		}
		for i, v := range k.Image.Data {
			if math.Float32bits(k2.Image.Data[i]) != math.Float32bits(v) {
				t.Fatalf("keyframe image diverged at %d", i)
			}
		}
		for i := range k.Label {
			if k2.Label[i] != k.Label[i] {
				t.Fatalf("keyframe label diverged at %d", i)
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	full := EncodeHello(Hello{Version: Version, NumClass: 9, FrameW: 96, FrameH: 64, Partial: true, SessionID: 12, Epoch: 3, BaseHash: 77})
	f.Add(full)
	f.Add([]byte{})
	// The forms earlier protocol versions sent; since version 5 it has one
	// length.
	mustReject := [][]byte{
		full[:9],           // version 1: no session id
		full[:17],          // version 2: no epoch
		full[:25],          // version 3: no base hash
		withCaps(full, 25), // version 4: a capability mask before the base hash
		append(bytes.Clone(full), 0),
	}
	for _, b := range mustReject {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		for _, b := range mustReject {
			if err == nil && bytes.Equal(b, data) {
				t.Fatalf("retired hello form of %d bytes accepted", len(data))
			}
		}
		if err != nil {
			return
		}
		h2, err := DecodeHello(EncodeHello(h))
		if err != nil {
			t.Fatalf("re-decode of re-encoded hello failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("hello round trip mismatch: %+v vs %+v", h2, h)
		}
	})
}

// withCaps is a Hello or Resume body as version 4 sent it: the one-bit
// capability mask (set) inserted at offset at, before the base hash.
func withCaps(body []byte, at int) []byte {
	b := append(bytes.Clone(body[:at]), 1, 0, 0, 0, 0, 0, 0, 0)
	return append(b, body[at:]...)
}

// FuzzDecodeStudentDiff hammers the one MsgStudentDiff body — every diff a
// server sends crosses it, as does every journal replay — through both of
// its steps: the stateless parse and the resolve against the set the seeds
// were cut from. It must never panic; base-relative or empty codec names,
// Seq 0, truncation, trailing bytes, every retired diff or checkpoint format
// and a reference the receiver does not hold must error; under the dense
// codecs, where every decoded value costs at least a bit of the integer
// stream, it must not allocate past the body (a pruned tensor's size is
// bounded by compress's own shape check instead); and
// what it accepts re-encodes under raw — a lossy codec would re-quantise
// what it decoded — to a body that decodes to the same diff bit for bit.
func FuzzDecodeStudentDiff(f *testing.F) {
	held := diffSeedHeld()
	seeds := diffSeeds(f)
	for _, s := range seeds {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeStudentDiff(data)
		if err == nil {
			err = d.Resolve(held)
		}
		for _, s := range seeds {
			if err == nil && !s.ok && bytes.Equal(s.body, data) {
				t.Fatalf("%s accepted", s.what)
			}
		}
		if err != nil {
			return
		}
		if d.Seq == 0 {
			t.Fatal("accepted seq 0")
		}
		codec, err := DiffCodec(d.Codec)
		if err != nil {
			t.Fatalf("accepted codec %q: %v", d.Codec, err)
		}
		if _, sparse := codec.(compress.Pruned); !sparse {
			n := 0
			for _, p := range d.Params {
				n += len(p.Value.Data)
			}
			if n > 8*len(data) {
				t.Fatalf("decoded %d values from a %d-byte %s body", n, len(data), d.Codec)
			}
		}
		if d.Relative {
			d.Ref = held
		}
		d.Codec = "raw"
		re, err := EncodeStudentDiff(d)
		if err != nil {
			t.Fatalf("re-encode of decoded diff failed: %v", err)
		}
		d2, err := DecodeStudentDiff(re)
		if err == nil {
			err = d2.Resolve(held)
		}
		if err != nil {
			t.Fatalf("re-decode of re-encoded diff failed: %v", err)
		}
		if d2.FrameIndex != d.FrameIndex || d2.Seq != d.Seq || len(d2.Params) != len(d.Params) {
			t.Fatalf("diff round trip mismatch")
		}
		if d2.Metric != d.Metric && !(math.IsNaN(d2.Metric) && math.IsNaN(d.Metric)) {
			t.Fatalf("diff metric diverged: %v vs %v", d2.Metric, d.Metric)
		}
		for i, p := range d.Params {
			q := d2.Params[i]
			if q.Name != p.Name || !q.Value.SameShape(p.Value) {
				t.Fatalf("diff param %d metadata diverged", i)
			}
			for j, v := range p.Value.Data {
				if math.Float32bits(q.Value.Data[j]) != math.Float32bits(v) {
					t.Fatalf("diff param %q[%d] diverged", p.Name, j)
				}
			}
		}
	})
}

type diffSeed struct {
	what string
	body []byte
	ok   bool
}

// diffSeedHeld is what the receiver holds: the reference of the relative
// seeds — a weight, a bias and a running variance with one channel small
// enough for per-tensor int8 to flush.
func diffSeedHeld() *nn.ParamSet {
	held := nn.NewParamSet()
	w := held.Add("sb5.c33.w", tensor.New(2, 3)).Value
	for i := range w.Data {
		w.Data[i] = float32(i) - 2.5
	}
	held.Add("out3.b", tensor.Full(0.5, 4))
	held.Add("sb5.bn.rvar", tensor.FromSlice([]float32{1e-4, 1, 2}, 3))
	return held
}

// diffSeeds is FuzzDecodeStudentDiff's corpus and, through
// TestStudentDiffSeedsVerdicts, a table of what decode-then-resolve must
// accept and reject.
func diffSeeds(tb testing.TB) []diffSeed {
	held := diffSeedHeld()
	var moved []*nn.Parameter
	for _, p := range held.All() {
		v := p.Value.Clone()
		for i := range v.Data {
			v.Data[i] *= 1 + 1e-3*float32(i%7-3)
		}
		moved = append(moved, &nn.Parameter{Name: p.Name, Value: v})
	}
	diff := StudentDiff{FrameIndex: 5, Metric: 0.75, Seq: 3, Params: moved}
	encode := func(d StudentDiff, codec string) []byte {
		d.Codec = codec
		body, err := EncodeStudentDiff(d)
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	var seeds []diffSeed
	for _, codec := range []string{"raw", "int8", "prune25"} {
		body := encode(diff, codec)
		seeds = append(seeds,
			diffSeed{codec, body, true},
			diffSeed{codec + " truncated", body[:len(body)/2], false},
			diffSeed{codec + " trailing byte", append(bytes.Clone(body), 0xEE), false})
	}
	absolute, lossy := seeds[0].body, seeds[3].body
	diff.Ref = held
	relative := encode(diff, "raw")

	// The relative raw body with its codec name rewritten and everything
	// after the name intact, so each of these can only be rejected for the
	// name.
	const nameAt = 4 + 8 + 8
	section := relative[nameAt+1+len("raw"):]
	with := func(name string) []byte {
		b := append(append(bytes.Clone(relative[:nameAt]), byte(len(name))), name...)
		return append(b, section...)
	}
	const hashAt = nameAt + 1 + len("raw") + 1
	const countAt = hashAt + 8 + 4 + 1 + len("raw") // delta magic, inner name
	mutate := func(edit func(b []byte) []byte) []byte { return edit(bytes.Clone(relative)) }

	// What earlier versions put on the wire. Version 8's body is version 9's
	// with a DLT2 delta stream: fixed-width tagged distances and a byte an
	// int8 symbol; this one is the relative int8 seed as version 8 sent it.
	// Versions 5 to 7 put the link
	// decision between seq and the codec name: a policy state byte (0
	// clear, 1 degraded, 2 critical) and a float32 stride scale; v7 turns a
	// version-8 body into its version-7 form under a decision. Version 5's
	// lossy body was that head followed by absolute weights under the codec
	// and the statistics as nn.WriteNamed. Version 4's plain body is
	// version 5's without the decision or the name; its adaptive envelope
	// (0xAD, version 3) put the decision and the name in front of that body
	// under raw, and in front of frame index, metric, seq and the lossy tail
	// otherwise. Version 3's body was absolute nn.WriteNamed with Seq
	// trailing.
	v8Diff, err := hex.DecodeString(
		"05000000000000000000e83f030000000000000004696e743801bdaa22b26cace94d444c543204696e74380300000009" +
			"007362352e6333332e770202000000030000000206006f7574332e620104000000020b007362352e626e2e7276617201" +
			"030000000310111111070000007d086dc4201183370000000200000009007362352e6333332e77020200000003000000" +
			"67b377387f330800195506006f7574332e6201040000005128463781abd600")
	if err != nil {
		tb.Fatal(err)
	}
	v7 := func(body []byte, state byte, scale float32) []byte {
		b := append(bytes.Clone(body[:nameAt]), state)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(scale))
		return append(b, body[nameAt:]...)
	}
	weights, stats := nn.SplitBNStats(moved)
	var lossyTail bytes.Buffer
	compress.Int8{}.Encode(&lossyTail, weights)
	nn.WriteNamed(&lossyTail, stats)
	v5Lossy := append(v7(lossy, 1, 1.5)[:nameAt+5+1+len("int8")], lossyTail.Bytes()...)
	plain := append(bytes.Clone(relative[:nameAt]), section...)
	envelope := func(name string, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{0xAD, 3, 1}, math.Float32bits(1.5))
		return append(append(append(b, byte(len(name))), name...), body...)
	}
	var v3 bytes.Buffer
	v3.Write(absolute[:12])
	nn.WriteNamed(&v3, moved)
	v3.Write(absolute[12:20])
	// A delta checkpoint as versions ≤ 4 framed it: a magic, then the
	// stream. The raw nn.WriteNamed checkpoint is the v3 body's middle.
	checkpoint := append([]byte("STC\x7f"), absolute[nameAt+1+len("raw")+1:]...)

	seeds = append(seeds,
		diffSeed{"relative raw", relative, true},
		diffSeed{"reference hash mismatch", mutate(func(b []byte) []byte { b[hashAt] ^= 1; return b }), false},
		diffSeed{"tensor count past the body", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[countAt:], 1<<19); return b }), false},
		diffSeed{"parameter stream cut short", mutate(func(b []byte) []byte { return b[:len(b)-4-2] }), false},
		diffSeed{"unknown section flag", mutate(func(b []byte) []byte { b[hashAt-1] |= 2; return b }), false},
		diffSeed{"seq 0", mutate(func(b []byte) []byte { clear(b[12:20]); return b }), false},
		diffSeed{"rewritten head", with("raw"), true},
		diffSeed{"delta name", with("delta+raw"), false},
		diffSeed{"empty name", with(""), false},
		diffSeed{"unknown name", with("nope"), false},
		diffSeed{"retired bf16 name", with("bf16"), false},
		diffSeed{"version 7 clear raw body", v7(relative, 0, 1), false},
		diffSeed{"version 7 degraded int8 body", v7(encode(diff, "int8"), 1, 1.5), false},
		diffSeed{"version 7 critical int8 body", v7(encode(diff, "int8"), 2, 2), false},
		diffSeed{"version 4 plain body", plain, false},
		diffSeed{"version 3 raw envelope", envelope("raw", plain), false},
		diffSeed{"version 3 int8 envelope", envelope("int8", append(bytes.Clone(lossy[:20]), lossyTail.Bytes()...)), false},
		diffSeed{"version 3 body", v3.Bytes(), false},
		diffSeed{"STC checkpoint", checkpoint, false},
		diffSeed{"empty", nil, false},
		diffSeed{"version 5 int8 body", v5Lossy, false},
		diffSeed{"version 8 relative int8 body", v8Diff, false})
	// Relative under the lossy codecs, and each with its reference hash
	// flipped.
	for _, codec := range []string{"int8", "prune25"} {
		body := encode(diff, codec)
		wrong := bytes.Clone(body)
		wrong[nameAt+1+len(codec)+1] ^= 1
		seeds = append(seeds,
			diffSeed{"relative " + codec, body, true},
			diffSeed{"relative " + codec + ", reference hash mismatch", wrong, false})
	}
	return seeds
}

func TestStudentDiffSeedsVerdicts(t *testing.T) {
	held := diffSeedHeld()
	for _, s := range diffSeeds(t) {
		d, err := DecodeStudentDiff(s.body)
		if err == nil {
			err = d.Resolve(held)
		}
		if (err == nil) != s.ok {
			t.Errorf("%s: err = %v, want accepted=%v", s.what, err, s.ok)
		}
	}
}

func FuzzDecodeResume(f *testing.F) {
	full := EncodeResume(Resume{SessionID: 7, Epoch: 2, LastDiffSeq: 31, BaseHash: 77})
	f.Add(full)
	f.Add([]byte{})
	mustReject := [][]byte{
		full[:24],          // the 3-field form without a base hash
		full[:23],          // truncated
		withCaps(full, 24), // version 4: a capability mask before the base hash
		append(bytes.Clone(full), 0),
	}
	for _, b := range mustReject {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResume(data)
		for _, b := range mustReject {
			if err == nil && bytes.Equal(b, data) {
				t.Fatalf("retired resume form of %d bytes accepted", len(data))
			}
		}
		if err != nil {
			return
		}
		r2, err := DecodeResume(EncodeResume(r))
		if err != nil {
			t.Fatalf("re-decode of re-encoded resume failed: %v", err)
		}
		if r2 != r {
			t.Fatalf("resume round trip mismatch: %+v vs %+v", r2, r)
		}
	})
}

func FuzzDecodeResumeAck(f *testing.F) {
	for _, a := range []ResumeAck{
		{Status: ResumeReplay, Epoch: 2, HeadSeq: 9, NumDiffs: 4},
		{Status: ResumeFull, Epoch: 1, HeadSeq: 100},
		{Status: ResumeReject, Reason: "unknown session"},
		{Status: ResumeRetry, Reason: "still attached"},
	} {
		body, err := EncodeResumeAck(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeResumeAck(data)
		if err != nil {
			return
		}
		body, err := EncodeResumeAck(a)
		if err != nil {
			t.Fatalf("re-encode of decoded ack failed: %v", err)
		}
		a2, err := DecodeResumeAck(body)
		if err != nil {
			t.Fatalf("re-decode of re-encoded ack failed: %v", err)
		}
		if a2 != a {
			t.Fatalf("resume ack round trip mismatch: %+v vs %+v", a2, a)
		}
	})
}

func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint8(MsgKeyFrame), EncodeKeyFrame(seedKeyFrame()))
	f.Add(uint8(MsgShutdown), []byte{})
	f.Add(uint8(MsgHello), EncodeHello(Hello{Version: Version}))
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, Message{Type: MsgType(typ), Body: body}); err != nil {
			t.Fatalf("write: %v", err)
		}
		m, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read of just-written message failed: %v", err)
		}
		if m.Type != MsgType(typ) || !bytes.Equal(m.Body, body) {
			t.Fatalf("message round trip mismatch")
		}
	})
}
