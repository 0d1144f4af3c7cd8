package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// tinyStudent returns a small, fast student for simulator tests.
func tinyStudent(seed int64) *nn.Student {
	cfg := nn.StudentConfig{
		InChannels: 3, NumClasses: video.NumClasses,
		Stem1: 4, Stem2: 8,
		B1: 8, B2: 12, B3: 12, B4: 12,
		B5: 8, B6: 8, Head: 8,
	}
	return nn.NewStudent(cfg, rand.New(rand.NewSource(seed)))
}

func calmSource(t *testing.T, seed int64) video.Source {
	t.Helper()
	cfg := video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.People}, seed)
	g, err := video.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simCfg(frames int) SimConfig {
	return SimConfig{
		Cfg:         DefaultConfig(),
		Mode:        ModeShadowTutor,
		Frames:      frames,
		Link:        netsim.DefaultLink(),
		Concurrency: FullConcurrency,
		EvalEvery:   4,
	}
}

// baselineOnce memoises one ShadowTutor simulation that several tests share
// (schedule-based assertions do not interact, so one run serves all).
var (
	baselineOnce sync.Once
	baselineRes  SimResult
	baselineErr  error
)

func baselineRun(t *testing.T) SimResult {
	t.Helper()
	baselineOnce.Do(func() {
		sc := simCfg(200)
		src := mustCalm(2)
		baselineRes, baselineErr = Simulate(sc, src, teacher.NewOracle(2), teacher.NewOracle(2), tinyStudent(2))
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineRes
}

func mustCalm(seed int64) video.Source {
	cfg := video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.People}, seed)
	g, err := video.NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

func TestSimulateBasicInvariants(t *testing.T) {
	res := baselineRun(t)
	if res.Frames != 200 {
		t.Fatalf("frames %d", res.Frames)
	}
	if res.KeyFrames < 1 {
		t.Fatal("first frame must be a key frame")
	}
	if res.Schedule[0].FrameIndex != 0 {
		t.Fatalf("first key frame at %d, want 0", res.Schedule[0].FrameIndex)
	}
	if res.KeyFrames != len(res.Schedule) {
		t.Fatalf("schedule length %d != key frames %d", len(res.Schedule), res.KeyFrames)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("virtual time must advance")
	}
	if res.MeanIoU < 0 || res.MeanIoU > 1 {
		t.Fatalf("mIoU %v out of range", res.MeanIoU)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Fatal("key frames must move bytes")
	}
}

func TestSimulateKeyFrameSpacingRespectsStrideBounds(t *testing.T) {
	res := baselineRun(t)
	cfg := DefaultConfig()
	for i := 1; i < len(res.Schedule); i++ {
		gap := res.Schedule[i].FrameIndex - res.Schedule[i-1].FrameIndex
		if gap < cfg.MinStride {
			t.Fatalf("key frames %d and %d only %d apart (< MIN_STRIDE %d)",
				i-1, i, gap, cfg.MinStride)
		}
		if gap > cfg.MaxStride+cfg.MinStride {
			t.Fatalf("key frame gap %d exceeds MAX_STRIDE %d", gap, cfg.MaxStride)
		}
	}
}

func TestSimulateDistillStepsBounded(t *testing.T) {
	res := baselineRun(t)
	for _, ev := range res.Schedule {
		if ev.Steps < 0 || ev.Steps > DefaultConfig().MaxUpdates {
			t.Fatalf("key frame took %d steps (MAX_UPDATES %d)", ev.Steps, DefaultConfig().MaxUpdates)
		}
		if ev.Metric < 0 || ev.Metric > 1 {
			t.Fatalf("metric %v out of range", ev.Metric)
		}
	}
}

func TestSimulateDelayModeMatchesSchedule(t *testing.T) {
	// P-1 and P-8 must produce the same key-frame schedule (delay ≤
	// MIN_STRIDE never changes stride decisions), but different accuracy
	// trajectories are possible.
	mk := func(delay int) SimResult {
		sc := simCfg(120)
		sc.DelayFrames = delay
		res, err := Simulate(sc, calmSource(t, 4), teacher.NewOracle(4), teacher.NewOracle(4), tinyStudent(4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p1 := mk(1)
	p8 := mk(8)
	if len(p1.Schedule) != len(p8.Schedule) {
		t.Fatalf("schedules differ: %d vs %d key frames", len(p1.Schedule), len(p8.Schedule))
	}
	for i := range p1.Schedule {
		if p1.Schedule[i].FrameIndex != p8.Schedule[i].FrameIndex {
			t.Fatalf("key frame %d at different positions: %d vs %d",
				i, p1.Schedule[i].FrameIndex, p8.Schedule[i].FrameIndex)
		}
	}
}

// keyFrameIndices is a schedule's key-frame positions.
func keyFrameIndices(s []KeyFrameEvent) []int {
	idx := make([]int, len(s))
	for i, ev := range s {
		idx[i] = ev.FrameIndex
	}
	return idx
}

// How often accuracy is sampled must not move what is trained: the
// evaluator is its own teacher, so its draws never reach the labels.
func TestSimulateScheduleIgnoresEvalEvery(t *testing.T) {
	frames := collect(t, 31, 300)
	run := func(every int) SimResult {
		sc := simCfg(len(frames))
		sc.EvalEvery = every
		res, err := Simulate(sc, video.NewReplay(frames), teacher.NewOracle(3), teacher.NewOracle(3), tinyStudent(21))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	all, third := run(1), run(3)
	if !slices.Equal(keyFrameIndices(all.Schedule), keyFrameIndices(third.Schedule)) || !slices.Equal(all.StrideTrace, third.StrideTrace) {
		t.Fatalf("EvalEvery moved the schedule: %d key frames at EvalEvery 1, %d at 3", all.KeyFrames, third.KeyFrames)
	}
}

// trainLog is a partial SessionObserver keeping every distillation result.
type trainLog struct {
	nopObserver
	got *[]TrainResult
}

func (o trainLog) Train(tr TrainResult) { *o.got = append(*o.got, tr) }

// The simulator and the live client drive one cadence and one server step,
// so on the same frames, student and teacher seed they send the same key
// frames, train them the same steps to the same metric and take the same
// stride decisions. Arrival timing moves only which frame an update lands
// on; the live client also applies its last update at teardown, which the
// simulator may not reach.
func TestSimulatorReplaysLiveSchedule(t *testing.T) {
	frames := collect(t, 31, 300)
	var trained []TrainResult
	cl, _ := runSessionUnder(t, DefaultConfig(), frames, func(srv *Server) {
		srv.Observer = trainLog{got: &trained}
	})
	sc := simCfg(len(frames))
	sc.EvalEvery = 1
	sim, err := Simulate(sc, video.NewReplay(frames), teacher.NewOracle(3), teacher.NewOracle(3), tinyStudent(21))
	if err != nil {
		t.Fatal(err)
	}
	live := cl.Result.StrideTrace
	if sim.KeyFrames != cl.Result.KeyFrames {
		t.Fatalf("simulator sent %d key frames, live client %d", sim.KeyFrames, cl.Result.KeyFrames)
	}
	if n := len(sim.StrideTrace); n > len(live) || len(live)-n > 1 || !slices.Equal(sim.StrideTrace, live[:n]) {
		t.Fatalf("stride traces diverge:\nsim  %v\nlive %v", sim.StrideTrace, live)
	}
	if len(trained) != len(sim.Schedule) {
		t.Fatalf("live server trained %d key frames, simulator %d", len(trained), len(sim.Schedule))
	}
	for i, ev := range sim.Schedule {
		if ev.Steps != trained[i].Steps || ev.Metric != trained[i].Metric {
			t.Fatalf("key frame %d: simulator took %d steps to %v, live server %d to %v",
				i, ev.Steps, ev.Metric, trained[i].Steps, trained[i].Metric)
		}
	}
}

// Step needs no conn. Under a lossy codec, a client that lands every reply
// with the live client's apply code holds exactly the View the server
// commits — and not the weights the server trained, which the codec
// rounded on the way.
func TestStepUnderLossyCodecKeepsClientOnView(t *testing.T) {
	cfg := DefaultConfig()
	srv := NewServer(cfg, tinyStudent(21), teacher.NewOracle(3))
	srv.DiffCodec = "int8"
	body, err := srv.checkpointBody(0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeCheckpointBody(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := tinyStudent(99)
	if err := nn.ApplyNamed(client.Params, full); err != nil {
		t.Fatal(err)
	}
	cad := newCadence(cfg, nil)
	for i, f := range collect(t, 31, 6) {
		r, err := srv.Step(transport.KeyFrame{FrameIndex: uint32(i), Image: f.Image, Label: f.Label, Seq: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		d, err := transport.DecodeStudentDiff(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyDiff(client, &cad, d); err != nil {
			t.Fatal(err)
		}
		if err := srv.Commit(r.Body); err != nil {
			t.Fatal(err)
		}
	}
	trained := false
	for _, v := range srv.View.All() {
		held := client.Params.Get(v.Name).Value.Data
		for j, x := range v.Value.Data {
			if math.Float32bits(held[j]) != math.Float32bits(x) {
				t.Fatalf("%s[%d]: client holds %v, View %v", v.Name, j, held[j], x)
			}
		}
		trained = trained || !slices.Equal(held, srv.Distiller.Student.Params.Get(v.Name).Value.Data)
	}
	if !trained {
		t.Fatal("the client holds the server's trained weights exactly; int8 rounded nothing")
	}
}

func TestSimulateNaive(t *testing.T) {
	sc := simCfg(50)
	sc.Mode = ModeNaive
	res, err := Simulate(sc, calmSource(t, 5), teacher.NewOracle(5), teacher.NewOracle(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyFrames != 50 {
		t.Fatal("naive offloading sends every frame")
	}
	if res.MeanIoU != 1 {
		t.Fatal("naive accuracy is 1 by definition (§6.3)")
	}
	// Paper regime: naive ≈ 2.1 FPS at 80 Mbps.
	if fps := float64(res.Frames) / res.VirtualTime.Seconds(); fps < 1.5 || fps > 3 {
		t.Fatalf("naive FPS %v outside the paper regime", fps)
	}
}

func TestSimulateWildNoKeyFrames(t *testing.T) {
	sc := simCfg(40)
	sc.Mode = ModeWild
	res, err := Simulate(sc, calmSource(t, 6), teacher.NewOracle(6), teacher.NewOracle(6), tinyStudent(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyFrames != 0 || res.BytesUp != 0 {
		t.Fatal("wild mode must never touch the network")
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	sc := simCfg(0)
	if _, err := Simulate(sc, calmSource(t, 7), teacher.NewOracle(7), teacher.NewOracle(7), tinyStudent(7)); err == nil {
		t.Fatal("zero frames must error")
	}
	sc = simCfg(10)
	sc.Cfg.Threshold = 2
	if _, err := Simulate(sc, calmSource(t, 8), teacher.NewOracle(8), teacher.NewOracle(8), tinyStudent(8)); err == nil {
		t.Fatal("invalid config must error")
	}
	sc = simCfg(10)
	sc.DelayFrames = sc.Cfg.MinStride + 1
	if _, err := Simulate(sc, calmSource(t, 9), teacher.NewOracle(9), teacher.NewOracle(9), tinyStudent(9)); err == nil {
		t.Fatal("an update landing after the next key frame must error")
	}
}

func TestSimulateThroughputWithinAnalyticBounds(t *testing.T) {
	// The virtual-time simulator must respect the §4.4 bounds when run
	// with the paper latencies it is configured with.
	res := baselineRun(t)
	fps := float64(res.Frames) / res.VirtualTime.Seconds()
	// Paper bounds for this config: lower ≈ 5.05, upper ≈ 6.99, with some
	// slack for the sim's finite-run edge effects.
	if fps < 4.5 || fps > 7.3 {
		t.Fatalf("simulated FPS %v outside the §4.4 envelope", fps)
	}
}

func TestRetimeMatchesSimulateTiming(t *testing.T) {
	res := baselineRun(t)
	sc := simCfg(res.Frames)
	rc := RetimeConfig{Cfg: sc.Cfg, Link: sc.Link, Concurrency: FullConcurrency}
	d := Retime(rc, res.Schedule, res.Frames, true)
	// Retime drives the clock Simulate ran on, so replaying the run's own
	// schedule on the run's own link reproduces its time exactly.
	if d != res.VirtualTime {
		t.Fatalf("retime %v vs simulate %v diverge", d, res.VirtualTime)
	}
}

func TestRetimeMonotoneInBandwidth(t *testing.T) {
	res := baselineRun(t)
	sc := simCfg(res.Frames)
	prev := -1.0
	for _, bw := range []netsim.Mbps{8, 12, 20, 40, 80} {
		rc := RetimeConfig{
			Cfg:         sc.Cfg,
			Link:        netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond},
			Concurrency: FullConcurrency,
		}
		fps := RetimeFPS(rc, res.Schedule, res.Frames, true)
		if fps < prev {
			t.Fatalf("throughput decreased with more bandwidth: %v then %v at %v Mbps", prev, fps, bw)
		}
		prev = fps
	}
}

func TestRetimeNoConcurrencySlower(t *testing.T) {
	res := baselineRun(t)
	sc := simCfg(res.Frames)
	rcFull := RetimeConfig{Cfg: sc.Cfg, Link: sc.Link, Concurrency: FullConcurrency}
	rcNone := rcFull
	rcNone.Concurrency = NoConcurrency
	if Retime(rcNone, res.Schedule, res.Frames, true) <= Retime(rcFull, res.Schedule, res.Frames, true) {
		t.Fatal("removing concurrency must increase execution time")
	}
}

func TestNaiveFPSDegradesWithBandwidth(t *testing.T) {
	lat := PaperLatencies(true)
	fps80 := NaiveFPS(netsim.Link{Bandwidth: 80, RTTBase: 5 * time.Millisecond}, lat)
	fps8 := NaiveFPS(netsim.Link{Bandwidth: 8, RTTBase: 5 * time.Millisecond}, lat)
	if fps8 >= fps80/3 {
		t.Fatalf("naive at 8 Mbps (%v) should collapse vs 80 Mbps (%v)", fps8, fps80)
	}
}

// The paper's central robustness claim (§6.4): ShadowTutor throughput is
// nearly flat from 80 down to 40 Mbps while naive halves.
func TestRobustnessShapeFigure4(t *testing.T) {
	res := baselineRun(t)
	fpsAt := func(bw netsim.Mbps) float64 {
		rc := RetimeConfig{
			Cfg:         DefaultConfig(),
			Link:        netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond},
			Concurrency: FullConcurrency,
		}
		return RetimeFPS(rc, res.Schedule, res.Frames, true)
	}
	st80, st40 := fpsAt(80), fpsAt(40)
	if st40 < 0.85*st80 {
		t.Fatalf("ShadowTutor lost %.0f%% from 80→40 Mbps; paper shows near-flat",
			100*(1-st40/st80))
	}
	lat := PaperLatencies(true)
	nv80 := NaiveFPS(netsim.Link{Bandwidth: 80, RTTBase: 5 * time.Millisecond}, lat)
	nv40 := NaiveFPS(netsim.Link{Bandwidth: 40, RTTBase: 5 * time.Millisecond}, lat)
	if nv40 > 0.85*nv80 {
		t.Fatal("naive should degrade noticeably from 80→40 Mbps")
	}
}
