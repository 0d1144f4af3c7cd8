// Package repro's top-level benchmarks regenerate, at reduced scale, every
// table and figure of the ShadowTutor paper (one benchmark per table of §6;
// ARCHITECTURE.md's paper → package map names the code behind each).
// Custom metrics carry the table's headline numbers: fps, key-frame
// percentage, mIoU×100, Mbps.
//
// These run real online distillation in pure Go, so each iteration is
// seconds, not nanoseconds — run with the default -benchtime=1x semantics:
//
//	go test -bench=. -benchmem
//
// cmd/stbench regenerates the full-scale (5000-frame) versions.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/video"
)

// benchOpts keeps the whole benchmark binary under go test's default
// 10-minute timeout on a single core while preserving every qualitative
// shape (orderings, ratios, crossovers). cmd/stbench regenerates the
// full-scale tables.
func benchOpts() experiments.Options {
	return experiments.Options{Frames: 100, EvalEvery: 5, Seed: 11}
}

// benchSuite shares one memoised suite (and one pre-trained checkpoint)
// across all benchmarks in the binary.
var benchSuite = experiments.NewSuite(benchOpts())

// BenchmarkTable2DistillStep measures one partial and one full distillation
// step on a real key frame (Table 2's "One step (ms)").
func BenchmarkTable2DistillStep(b *testing.B) {
	for _, mode := range []struct {
		name    string
		partial bool
	}{{"partial", true}, {"full", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Partial = mode.partial
			cfg.Threshold = 0.999 // force MAX_UPDATES steps: measure steps, not early exit
			cfg.MaxUpdates = 1
			student, err := experiments.FreshStudentFor(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dist := core.NewDistiller(cfg, student)
			gen, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Moving, Scenery: video.Street}, 17))
			if err != nil {
				b.Fatal(err)
			}
			frame := gen.Next()
			label := frame.Label
			// Warm the per-distiller contexts and pool classes so the
			// -benchtime=1x CI smoke measures steady state, not first-call
			// lazy construction.
			dist.Train(frame, label)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist.Train(frame, label)
			}
			b.StopTimer()
			if dist.TotalSteps > 0 {
				b.ReportMetric(dist.TotalStepTime.Seconds()*1e3/float64(dist.TotalSteps), "ms/step")
			}
		})
	}
}

// BenchmarkTable3Throughput regenerates the per-category FPS comparison.
func BenchmarkTable3Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchSuite.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if n := len(t.Rows()); n != len(video.Categories)+1 {
			b.Fatalf("table 3 rows: %d", n)
		}
	}
	reportRunAggregates(b)
}

// BenchmarkTable4DataPerKeyFrame measures real message serialization sizes.
func BenchmarkTable4DataPerKeyFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if n := len(t.Rows()); n != 3 {
			b.Fatalf("table 4 rows: %d", n)
		}
	}
}

// BenchmarkTable5KeyFrameRatio regenerates key-frame ratios and traffic.
func BenchmarkTable5KeyFrameRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite.Table5(); err != nil {
			b.Fatal(err)
		}
	}
	reportRunAggregates(b)
}

// BenchmarkTable6Accuracy regenerates the Wild/P-1/P-8/F-1 accuracy grid.
func BenchmarkTable6Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite.Table6(); err != nil {
			b.Fatal(err)
		}
	}
	// Report the headline averages.
	var wild, p1 float64
	n := 0
	for _, cat := range video.Categories {
		w, err := benchSuite.CategoryRun(cat, core.ModeWild, true, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		p, err := benchSuite.CategoryRun(cat, core.ModeShadowTutor, true, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		wild += w.MeanIoU * 100
		p1 += p.MeanIoU * 100
		n++
	}
	b.ReportMetric(wild/float64(n), "wild-mIoU")
	b.ReportMetric(p1/float64(n), "P1-mIoU")
}

// BenchmarkTable7RealTime regenerates the 7 FPS re-sampled comparison.
func BenchmarkTable7RealTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Bandwidth regenerates the bandwidth sweep.
func BenchmarkFigure4Bandwidth(b *testing.B) {
	var pts []experiments.Figure4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = benchSuite.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: ShadowTutor at 80 vs 40 Mbps (robustness), naive at 80.
	for _, p := range pts {
		if p.Stream == "softball" && p.Bandwidth == 40 {
			b.ReportMetric(p.FPS, "softball-40Mbps-fps")
		}
		if p.Stream == "naive" && p.Bandwidth == 80 {
			b.ReportMetric(p.FPS, "naive-80Mbps-fps")
		}
	}
}

// BenchmarkAblationStride regenerates the §4.1.5 striding-policy ablation.
func BenchmarkAblationStride(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite.AblationStride(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAsync regenerates the async-vs-blocking ablation.
func BenchmarkAblationAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite.AblationAsync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompression measures the §8 future-work diff codecs.
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCompression(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudentInference measures t_si for this implementation (the Go
// analogue of the Jetson Nano's 143 ms measurement in §5.3).
func BenchmarkStudentInference(b *testing.B) {
	cfg := core.DefaultConfig()
	student, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.People}, 19))
	if err != nil {
		b.Fatal(err)
	}
	frame := gen.Next()
	// Warm the inference context and pool classes (see the distill-step
	// benchmark for rationale).
	student.Infer(frame.Image)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		student.Infer(frame.Image)
	}
}

// BenchmarkVideoGeneration measures the synthetic frame renderer.
func BenchmarkVideoGeneration(b *testing.B) {
	gen, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Moving, Scenery: video.Street}, 23))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkMultiClientThroughput compares aggregate server throughput with
// 1 vs 16 concurrent client sessions sharing one batched teacher through
// the internal/serve session manager — the scaling claim of the
// multi-session server.
func BenchmarkMultiClientThroughput(b *testing.B) {
	for _, clients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := harness.Drive("bench/multiclient", "bench", harness.Spec{
					Workload:  "mixed",
					Clients:   clients,
					Frames:    48,
					EvalEvery: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.AggregateFPS, "agg-fps")
				b.ReportMetric(m.MeanClientFPS, "client-fps")
			}
		})
	}
}

// BenchmarkFabricThroughput compares the sharded serving fabric against the
// single session manager at 64 concurrent clients: the same mixed-stream
// population placed by rendezvous hash over 4 shard workers (each with its
// own teacher, lock domain and session registry) versus one
// serve.Manager. The headline metric is aggregate distill-step throughput —
// the server-side work rate the fabric exists to scale; agg-fps reports the
// client-observed frame rate for context. On teacher-bound or lock-bound
// deployments the shard count is the scaling lever; on a CPU-saturated
// pure-Go box the distillers themselves bound both configurations.
func BenchmarkFabricThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := harness.Drive("bench/fabric", "bench", harness.Spec{
					Workload:  "mixed",
					Clients:   64,
					Frames:    24,
					EvalEvery: 8,
					Shards:    shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				totalFrames := float64(m.Clients * m.FramesPerClient)
				keyFrames := m.KeyFrameRate * totalFrames
				stepsPerSec := m.MeanDistillSteps * keyFrames / m.WallSeconds
				b.ReportMetric(stepsPerSec, "distill-steps/s")
				b.ReportMetric(m.AggregateFPS, "agg-fps")
			}
		})
	}
}

// reportRunAggregates attaches the partial-distillation averages of the
// memoised suite runs to the benchmark output.
func reportRunAggregates(b *testing.B) {
	var fps, key float64
	n := 0
	for _, cat := range video.Categories {
		res, err := benchSuite.CategoryRun(cat, core.ModeShadowTutor, true, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		rc := core.RetimeConfig{Cfg: core.DefaultConfig(), Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency}
		d := core.Retime(rc, res.Schedule, res.Frames, true)
		fps += float64(res.Frames) / d.Seconds()
		key += res.KeyFrameRatio() * 100
		n++
	}
	b.ReportMetric(fps/float64(n), "fps")
	b.ReportMetric(key/float64(n), "key%")
}
