package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
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
	return KeyFrame{FrameIndex: 7, Image: img, Label: label}
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

func FuzzDecodeKeyFrame(f *testing.F) {
	f.Add(EncodeKeyFrame(seedKeyFrame()))
	kf := seedKeyFrame()
	kf.Label = nil
	f.Add(EncodeKeyFrame(kf))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 4, 255, 255, 0, 0}) // implausible dims
	f.Add(withLabelRuns(2, 64))                  // one run, the whole image
	mustReject := [][]byte{
		withLabelRuns(2, 63),           // runs stop short of the image
		withLabelRuns(2, 60, 1, 5),     // a run past the end
		withLabelRuns(2, 1<<40),        // a count nothing backs
		withLabelRuns(2, 64, 3),        // a class without its run
		withLabelRuns(2, 0, 2, 64),     // an empty run
		withLabelRuns(1<<33, 64),       // a class wider than int32
		withLabelRuns(2, 64)[:3*64*4],  // truncated inside the image
		withLabelRuns(2, 32, 1, 32, 0), // bytes after the last full pair
	}
	for _, b := range mustReject {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := DecodeKeyFrame(data)
		for _, b := range mustReject {
			if err == nil && bytes.Equal(b, data) {
				t.Fatalf("malformed label accepted: % x", data[len(data)-24:])
			}
		}
		if err != nil {
			return
		}
		if k.Label != nil && len(k.Label)*k.Image.Dim(0) != k.Image.Len() && k.Image.Rank() == 3 {
			t.Fatalf("label of %d classes beside a %v image", len(k.Label), k.Image.Shape())
		}
		re := EncodeKeyFrame(k)
		k2, err := DecodeKeyFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded keyframe failed: %v", err)
		}
		if k2.FrameIndex != k.FrameIndex || !k2.Image.SameShape(k.Image) || len(k2.Label) != len(k.Label) {
			t.Fatalf("keyframe round trip mismatch: %v vs %v", k2, k)
		}
		for i := range k.Image.Data {
			if k2.Image.Data[i] != k.Image.Data[i] && !(isNaN32(k2.Image.Data[i]) && isNaN32(k.Image.Data[i])) {
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
	full := EncodeHello(Hello{Version: Version, NumClass: 9, FrameW: 96, FrameH: 64, Partial: true, SessionID: 12, Epoch: 3, Caps: CapDeltaCheckpoint, BaseHash: 77})
	f.Add(full)
	f.Add([]byte{})
	// The short forms earlier protocol versions sent, each one trailing
	// field shorter than the next; Version 4 has one length.
	mustReject := [][]byte{
		full[:9],  // version 1: no session id
		full[:17], // version 2: no epoch
		full[:25], // version 3: no capabilities
		full[:33], // capabilities without a base hash
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

func FuzzDecodeStudentDiff(f *testing.F) {
	held := nn.NewParamSet()
	w := held.Add("out3.w", tensor.New(2, 3)).Value
	for i := range w.Data {
		w.Data[i] = float32(i)
	}
	moved := tensor.New(2, 3)
	for i := range moved.Data {
		moved.Data[i] = w.Data[i] + 1e-4
	}
	diff := StudentDiff{FrameIndex: 5, Metric: 0.75, Seq: 3, Params: []*nn.Parameter{{Name: "out3.w", Value: moved}}}
	encode := func(d StudentDiff) []byte {
		body, err := EncodeStudentDiff(d)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	absolute := encode(diff)
	f.Add(absolute)
	f.Add([]byte{})
	diff.Ref = held
	relative := encode(diff)
	f.Add(relative)

	// The version-3 body: absolute values as nn.WriteNamed, Seq trailing.
	var v3 bytes.Buffer
	v3.Write(relative[:12])
	nn.WriteNamed(&v3, diff.Params)
	v3.Write(relative[12:20])
	otherRef := bytes.Clone(relative)
	otherRef[21] ^= 1                            // the reference hash
	const streamAt = 21 + 8 + 4 + 1 + len("raw") // flags, hash, magic, inner name
	hugeCount := bytes.Clone(relative)
	binary.LittleEndian.PutUint32(hugeCount[streamAt:], 1<<19) // more tensors than bytes
	mustReject := [][]byte{
		v3.Bytes(),
		otherRef,
		hugeCount,
		relative[:len(relative)-4-2], // parameter stream cut short inside the packed distances
		append(bytes.Clone(relative), 0),
	}
	for _, b := range mustReject {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeStudentDiff(data)
		if err == nil {
			err = d.Resolve(held)
		}
		for _, b := range mustReject {
			if err == nil && bytes.Equal(b, data) {
				t.Fatalf("malformed diff body accepted: % x", data)
			}
		}
		if err != nil {
			return
		}
		// What resolves re-encodes, relative to the same reference, to
		// something that resolves to the same bits.
		if d.Relative {
			d.Ref = held
		}
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

func FuzzDecodeResume(f *testing.F) {
	full := EncodeResume(Resume{SessionID: 7, Epoch: 2, LastDiffSeq: 31, Caps: CapDeltaCheckpoint, BaseHash: 77})
	f.Add(full)
	f.Add([]byte{})
	mustReject := [][]byte{
		full[:24], // the 3-field form without capabilities
		full[:23], // truncated
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

func isNaN32(v float32) bool { return v != v }
