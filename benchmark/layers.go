package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

const (
	layerWarmup = 5
	layerCalls  = 31
)

// timeCalls warms fn up, then returns the median time of one call in ms and
// the mean heap allocations per call.
func timeCalls(fn func()) (medianMs, allocs float64) {
	for i := 0; i < layerWarmup; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]float64, layerCalls)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = ms(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	return stats.Median(times), float64(after.Mallocs-before.Mallocs) / layerCalls
}

// layerTable times each layer alone: one goroutine calling public
// functions on seeded inputs, default backend.
func layerTable(seed int64) (map[string]value, error) {
	out, set := collect(perLayer)
	rng := rand.New(rand.NewSource(seed))
	randn := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64())
		}
		return t
	}

	// The student's largest convolution by FLOPs is out1/out2: 3×3,
	// B6→Head channels at half resolution. Lowered to a GEMM that is
	// m = Head, k = 9·B6, n = (H/2)·(W/2).
	sc := nn.DefaultStudentConfig()
	h, w := video.DefaultH/2, video.DefaultW/2
	m, k, n := sc.Head, 9*sc.B6, h*w
	gflops := func(perCallMs float64) float64 { return 2 * float64(m) * float64(n) * float64(k) / (perCallMs * 1e6) }
	dst := tensor.New(m, n)
	a, b := randn(m, k), randn(k, n)
	t, _ := timeCalls(func() { tensor.MatMulInto(dst, a, b, false) })
	set("tensor.gemm_gflops", gflops(t))
	at := randn(k, m)
	t, _ = timeCalls(func() { tensor.MatMulATBInto(dst, at, b, false) })
	set("tensor.gemm_atb_gflops", gflops(t))
	bt := randn(n, k)
	t, _ = timeCalls(func() { tensor.MatMulABTInto(dst, a, bt) })
	set("tensor.gemm_abt_gflops", gflops(t))

	ws := tensor.NewWorkspace()
	spec := tensor.Spec(3, 3)
	x, wt, bias := randn(sc.B6, h, w), randn(sc.Head, sc.B6, 3, 3), randn(sc.Head)
	t, _ = timeCalls(func() { tensor.Conv2DWS(ws, x, wt, bias, spec); ws.Reset() })
	set("tensor.conv_fwd_ms", t)
	gy := randn(sc.Head, h, w)
	t, _ = timeCalls(func() { tensor.Conv2DBackwardWS(ws, x, wt, gy, spec, true); ws.Reset() })
	set("tensor.conv_bwd_ms", t)

	// Everything above the kernels runs on the pre-trained student and
	// frames of the workloads' own stream.
	cfg := core.DefaultConfig()
	student, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		return nil, err
	}
	vc, err := video.NamedVideo("drone", streamSeed)
	if err != nil {
		return nil, err
	}
	gen, err := video.NewGenerator(vc)
	if err != nil {
		return nil, err
	}
	frames := make([]video.Frame, 8)
	imgs := make([]*tensor.Tensor, len(frames))
	for i := range frames {
		frames[i] = gen.Next()
		imgs[i] = frames[i].Image
	}
	f := frames[0]

	t, allocs := timeCalls(func() { student.Infer(f.Image) })
	set("nn.infer_ms", t)
	set("nn.infer_allocs", allocs)
	t, _ = timeCalls(func() { student.InferBatch(imgs) })
	set("nn.infer_batch8_ms_per_frame", t/float64(len(imgs)))

	// A threshold no student reaches makes every Train call run all
	// MAX_UPDATES steps.
	hard := cfg
	hard.Threshold = 0.999999
	dist := core.NewDistiller(hard, student.Clone())
	oracle := teacher.NewOracle(seed + 1)
	label := oracle.Infer(f)
	t, allocs = timeCalls(func() { dist.Train(f, label) })
	set("core.train_step_ms", t/float64(hard.MaxUpdates))
	set("core.train_allocs_per_step", allocs/float64(hard.MaxUpdates))

	t, _ = timeCalls(func() { oracle.Infer(f) })
	set("teacher.oracle_infer_ms", t)
	cnn := teacher.NewCNNTeacher(seed + 2)
	t, _ = timeCalls(func() { cnn.Infer(f) })
	set("teacher.cnn_infer_ms", t)
	t, _ = timeCalls(func() { cnn.InferBatch(frames) })
	set("teacher.cnn_batch8_ms_per_frame", t/float64(len(frames)))

	// Codecs on what a key frame's answer carries: the trainable subset of
	// a student one key frame past the checkpoint.
	trained := dist.Student
	diff := nn.TrainableSubset(trained.Params)
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	for _, codec := range []compress.Codec{compress.Raw{}, compress.Int8{}} {
		name := "compress." + codec.Name()
		var buf bytes.Buffer
		t, _ = timeCalls(func() { buf.Reset(); note(codec.Encode(&buf, diff)) })
		set(name+"_encode_ms", t)
		set(name+"_bytes", float64(buf.Len()))
		body := buf.Bytes()
		t, _ = timeCalls(func() { _, err := codec.Decode(bytes.NewReader(body)); note(err) })
		set(name+"_decode_ms", t)
	}
	// The full checkpoint of that student, delta+int8 against the
	// pre-trained base: what a resume-by-checkpoint or a session handoff
	// would ship.
	ck := &core.CheckpointCodec{Base: student.Params, Codec: compress.Int8{}}
	ckBody, err := ck.EncodeBody(trained.Params.All())
	note(err)
	set("compress.delta_int8_checkpoint_bytes", float64(len(ckBody)))

	kf := transport.KeyFrame{FrameIndex: 1, Image: f.Image, Label: f.Label, Seq: 1}
	var body []byte
	t, _ = timeCalls(func() { body = transport.EncodeKeyFrame(kf) })
	set("transport.keyframe_encode_ms", t)
	set("transport.keyframe_bytes", float64(len(body)))
	t, _ = timeCalls(func() { _, err := transport.DecodeKeyFrame(body); note(err) })
	set("transport.keyframe_decode_ms", t)
	return out, codecErr
}
