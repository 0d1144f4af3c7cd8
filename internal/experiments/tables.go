package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/video"
)

// link80 is the paper's nominal network: 80 Mbps Wi-Fi.
func link80() netsim.Link { return netsim.DefaultLink() }

// Table2 reproduces "Execution time and mean number of distillation steps":
// per-step latency (ms) and mean steps per key frame, partial vs full.
// Step latency is measured wall time of this process's Go kernels, not the
// paper's GPU step times.
func (s *Suite) Table2() (*stats.Table, error) {
	t := stats.NewTable("Table 2: distillation step latency and mean steps",
		"Distillation", "One step (ms)", "Mean # of steps")
	for _, partial := range []bool{true, false} {
		var steps, keys int
		var wall time.Duration
		for _, cat := range video.Categories {
			res, err := s.CategoryRun(cat, core.ModeShadowTutor, partial, 1, 0)
			if err != nil {
				return nil, err
			}
			steps += res.DistillSteps
			keys += res.KeyFrames
			wall += res.DistillTime
		}
		name := "Partial"
		if !partial {
			name = "Full"
		}
		var perStep float64
		if steps > 0 {
			perStep = wall.Seconds() * 1e3 / float64(steps)
		}
		var mean float64
		if keys > 0 {
			mean = float64(steps) / float64(keys)
		}
		t.AddRowf(name, perStep, mean)
	}
	return t, nil
}

// Table3 reproduces "Frames processed per second (FPS) and execution time":
// per-category throughput for partial, full and naive at 80 Mbps. Timing
// comes from re-playing each run's key-frame schedule on the virtual clock
// with the paper's component latencies.
func (s *Suite) Table3() (*stats.Table, error) {
	t := stats.NewTable("Table 3: throughput (FPS) and execution time (s)",
		"Camera", "Scene", "Partial", "Full", "Naive")
	lat := core.PaperLatencies(true)
	naive := core.NaiveTime(link80(), lat, s.Opts.Frames)
	var pSum, fSum float64
	for _, cat := range video.Categories {
		row := make([]string, 0, 5)
		row = append(row, cat.Camera.String(), cat.Scenery.String())
		var pFPS, fFPS float64
		for _, partial := range []bool{true, false} {
			res, err := s.CategoryRun(cat, core.ModeShadowTutor, partial, 1, 0)
			if err != nil {
				return nil, err
			}
			rc := core.RetimeConfig{Cfg: core.DefaultConfig(), Link: link80(), Concurrency: core.FullConcurrency}
			rc.Cfg.Partial = partial
			d := core.Retime(rc, res.Schedule, res.Frames, partial)
			fps := float64(res.Frames) / d.Seconds()
			row = append(row, fmt.Sprintf("%.2f(%.1f)", fps, d.Seconds()))
			if partial {
				pFPS = fps
			} else {
				fFPS = fps
			}
		}
		pSum += pFPS
		fSum += fFPS
		row = append(row, fmt.Sprintf("%.2f(%.1f)", float64(s.Opts.Frames)/naive.Seconds(), naive.Seconds()))
		t.AddRow(row...)
	}
	n := float64(len(video.Categories))
	t.AddRow("average", "",
		fmt.Sprintf("%.2f", pSum/n), fmt.Sprintf("%.2f", fSum/n),
		fmt.Sprintf("%.2f", float64(s.Opts.Frames)/naive.Seconds()))
	return t, nil
}

// Table4 reproduces "Data transmitted on each key frame (MB)". It reports
// the HD-equivalent sizes the traffic model uses (paper units) next to the
// actually measured wire bytes of this implementation's protocol messages:
// To Server measures a rendered drone key frame without its oracle label:
// 29 KB, its G and B planes predicted from the plane before (52 KB when
// every plane predicted only from itself).
// The paper ships absolute weights, so the To Client column measures an
// absolute diff (per tensor the smaller of float32 and its length-coded
// bit patterns); the relative diffs a live
// session sends are about 0.65–0.7 of it (harness bytes_down_hd_mb).
func Table4() (*stats.Table, error) {
	t := stats.NewTable("Table 4: data transmitted per key frame (MB HD-equivalent / KB measured)",
		"Direction", "Partial", "Full", "Naive")

	// Measured sizes from real serialization of this repo's student/frame.
	st, err := SharedPretrained()
	if err != nil {
		return nil, err
	}
	// The image coder is predictive, so only a rendered frame measures it.
	cfg, err := video.NamedVideo("drone", 1)
	if err != nil {
		return nil, err
	}
	g, err := video.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	frameMsg := transport.EncodeKeyFrame(transport.KeyFrame{Image: g.Next().Image})
	frameKB := float64(len(frameMsg)+transport.FrameOverhead) / 1024

	st.SetPartial(true)
	partialDiff, err := transport.EncodeStudentDiff(transport.StudentDiff{Params: nn.TrainableSubset(st.Params)})
	if err != nil {
		return nil, err
	}
	st.SetPartial(false)
	fullDiff, err := transport.EncodeStudentDiff(transport.StudentDiff{Params: nn.TrainableSubset(st.Params)})
	if err != nil {
		return nil, err
	}
	partialKB := float64(len(partialDiff)+transport.FrameOverhead) / 1024
	fullKB := float64(len(fullDiff)+transport.FrameOverhead) / 1024
	maskKB := float64(4*video.DefaultH*video.DefaultW+transport.FrameOverhead) / 1024

	hdUp := netsim.MB(netsim.HDFrameBytes)
	hdPartial := netsim.MB(netsim.HDPartialDiffBytes)
	hdFull := netsim.MB(netsim.HDStudentBytes)
	hdNaive := netsim.MB(netsim.HDNaiveResponseBytes)

	t.AddRow("To Server",
		fmt.Sprintf("%.3f / %.0fKB", hdUp, frameKB),
		fmt.Sprintf("%.3f / %.0fKB", hdUp, frameKB),
		fmt.Sprintf("%.3f / %.0fKB", hdUp, frameKB))
	t.AddRow("To Client",
		fmt.Sprintf("%.3f / %.0fKB", hdPartial, partialKB),
		fmt.Sprintf("%.3f / %.0fKB", hdFull, fullKB),
		fmt.Sprintf("%.3f / %.0fKB", hdNaive, maskKB))
	t.AddRow("Total",
		fmt.Sprintf("%.3f", hdUp+hdPartial),
		fmt.Sprintf("%.3f", hdUp+hdFull),
		fmt.Sprintf("%.3f", hdUp+hdNaive))
	return t, nil
}

// Table5 reproduces "Key frames ratio (%) and network traffic (Mbps)".
func (s *Suite) Table5() (*stats.Table, error) {
	t := stats.NewTable("Table 5: key frame ratio (%) and network traffic (Mbps)",
		"Camera", "Scene", "KeyP", "KeyF", "KeyNaive", "TrafficP", "TrafficNaive")
	lat := core.PaperLatencies(true)
	naiveTime := core.NaiveTime(link80(), lat, s.Opts.Frames)
	naiveBytes := int64(s.Opts.Frames) * int64(netsim.HDFrameBytes+netsim.HDNaiveResponseBytes)
	naiveTraffic := netsim.TrafficMbps(naiveBytes, naiveTime)

	var keyPSum, keyFSum, trafPSum float64
	for _, cat := range video.Categories {
		resP, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 1, 0)
		if err != nil {
			return nil, err
		}
		resF, err := s.CategoryRun(cat, core.ModeShadowTutor, false, 1, 0)
		if err != nil {
			return nil, err
		}
		rc := core.RetimeConfig{Cfg: core.DefaultConfig(), Link: link80(), Concurrency: core.FullConcurrency}
		rc.Cfg.Partial = true
		d := core.Retime(rc, resP.Schedule, resP.Frames, true)
		traffic := netsim.TrafficMbps(resP.BytesUp+resP.BytesDown, d)
		keyPSum += resP.KeyFrameRatio() * 100
		keyFSum += resF.KeyFrameRatio() * 100
		trafPSum += traffic
		t.AddRow(cat.Camera.String(), cat.Scenery.String(),
			stats.Pct(resP.KeyFrameRatio()), stats.Pct(resF.KeyFrameRatio()), "100.0",
			fmt.Sprintf("%.2f", traffic), fmt.Sprintf("%.2f", naiveTraffic))
	}
	n := float64(len(video.Categories))
	t.AddRow("average", "",
		fmt.Sprintf("%.2f", keyPSum/n), fmt.Sprintf("%.2f", keyFSum/n), "100.0",
		fmt.Sprintf("%.2f", trafPSum/n), fmt.Sprintf("%.2f", naiveTraffic))
	return t, nil
}

// Table6 reproduces "Mean IoU of various settings": Wild, P-1, P-8, F-1 and
// naive per category, ×100 as in the paper.
func (s *Suite) Table6() (*stats.Table, error) {
	t := stats.NewTable("Table 6: mean IoU (×100) vs teacher output",
		"Camera", "Scene", "Wild", "P-1", "P-8", "F-1", "Naive")
	sums := make([]float64, 4)
	for _, cat := range video.Categories {
		wild, err := s.CategoryRun(cat, core.ModeWild, true, 0, 0)
		if err != nil {
			return nil, err
		}
		p1, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 1, 0)
		if err != nil {
			return nil, err
		}
		p8, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 8, 0)
		if err != nil {
			return nil, err
		}
		f1, err := s.CategoryRun(cat, core.ModeShadowTutor, false, 1, 0)
		if err != nil {
			return nil, err
		}
		vals := []float64{wild.MeanIoU * 100, p1.MeanIoU * 100, p8.MeanIoU * 100, f1.MeanIoU * 100}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRowf(cat.Camera.String(), cat.Scenery.String(),
			vals[0], vals[1], vals[2], vals[3], "100.0")
	}
	n := float64(len(video.Categories))
	t.AddRowf("average", "", sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n, "100.0")
	return t, nil
}

// Table7 reproduces "Mean IoU and key frame ratio for 7 FPS videos": the
// native 30 FPS streams re-sampled ×4, stressing temporal coherence (§6.5).
func (s *Suite) Table7() (*stats.Table, error) {
	t := stats.NewTable("Table 7: 7 FPS re-sampled streams",
		"Camera", "Scene", "Partial-1", "Partial-8", "Key frame %")
	var s1, s8, kf float64
	for _, cat := range video.Categories {
		p1, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 1, 4)
		if err != nil {
			return nil, err
		}
		p8, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 8, 4)
		if err != nil {
			return nil, err
		}
		s1 += p1.MeanIoU * 100
		s8 += p8.MeanIoU * 100
		kf += p1.KeyFrameRatio() * 100
		t.AddRowf(cat.Camera.String(), cat.Scenery.String(),
			p1.MeanIoU*100, p8.MeanIoU*100, p1.KeyFrameRatio()*100)
	}
	n := float64(len(video.Categories))
	t.AddRowf("average", "", s1/n, s8/n, kf/n)
	return t, nil
}

// Figure4Point is one curve sample of the bandwidth sweep.
type Figure4Point struct {
	Stream    string
	Bandwidth netsim.Mbps
	FPS       float64
}

// Figure4Bandwidths are the sweep points of §6.4.
var Figure4Bandwidths = []netsim.Mbps{8, 12, 20, 40, 60, 80, 90}

// Figure4 reproduces "Network bandwidth and system throughput": throughput
// of the five named streams plus naive offloading across the bandwidth
// sweep, with the analytic bound envelope.
func (s *Suite) Figure4() ([]Figure4Point, *stats.Table, error) {
	t := stats.NewTable("Figure 4: throughput (FPS) vs bandwidth (Mbps)",
		append([]string{"Stream"}, BandwidthLabels()...)...)
	var pts []Figure4Point
	lat := core.PaperLatencies(true)
	for _, name := range video.NamedVideos {
		res, err := s.Run(RunKey{Stream: name, Mode: core.ModeShadowTutor, Partial: true, Delay: 1})
		if err != nil {
			return nil, nil, err
		}
		row := []string{fmt.Sprintf("%s(key %.1f%%)", name, res.KeyFrameRatio()*100)}
		for _, bw := range Figure4Bandwidths {
			link := netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond}
			rc := core.RetimeConfig{Cfg: core.DefaultConfig(), Link: link, Concurrency: core.FullConcurrency}
			rc.Cfg.Partial = true
			d := core.Retime(rc, res.Schedule, res.Frames, true)
			fps := float64(res.Frames) / d.Seconds()
			pts = append(pts, Figure4Point{Stream: name, Bandwidth: bw, FPS: fps})
			row = append(row, fmt.Sprintf("%.2f", fps))
		}
		t.AddRow(row...)
	}
	// Naive baseline curve.
	row := []string{"naive"}
	for _, bw := range Figure4Bandwidths {
		link := netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond}
		fps := core.NaiveFPS(link, lat)
		pts = append(pts, Figure4Point{Stream: "naive", Bandwidth: bw, FPS: fps})
		row = append(row, fmt.Sprintf("%.2f", fps))
	}
	t.AddRow(row...)
	// Analytic bound envelope (the grey region of the figure).
	lo := []string{"bound-lo"}
	hi := []string{"bound-hi"}
	for _, bw := range Figure4Bandwidths {
		in := BoundsInputs(true, bw)
		lo = append(lo, fmt.Sprintf("%.2f", in.ThroughputLower()))
		hi = append(hi, fmt.Sprintf("%.2f", in.ThroughputUpper()))
	}
	t.AddRow(lo...)
	t.AddRow(hi...)
	return pts, t, nil
}

// BandwidthLabels names the Figure4Bandwidths sweep points ("8Mbps", …).
func BandwidthLabels() []string {
	h := make([]string, len(Figure4Bandwidths))
	for i, bw := range Figure4Bandwidths {
		h[i] = fmt.Sprintf("%gMbps", float64(bw))
	}
	return h
}

// BoundsInputs assembles the §4.4/§5.3 analytic inputs for a bandwidth:
// component latencies from the paper, t_net and s_net from the HD-equivalent
// sizes over the link.
func BoundsInputs(partial bool, bw netsim.Mbps) bounds.Inputs {
	lat := core.PaperLatencies(partial)
	// §5.3 defines t_net as pure serialisation delay (2.637+0.395 MB at
	// 80 Mbps ≈ 0.303 s); no propagation term.
	link := netsim.Link{Bandwidth: bw}
	diff := netsim.HDStudentBytes
	if partial {
		diff = netsim.HDPartialDiffBytes
	}
	cfg := core.DefaultConfig()
	return bounds.Inputs{
		TSI:        lat.StudentInference,
		TSD:        lat.DistillStep,
		TTI:        lat.TeacherInference,
		TNet:       link.TransferTime(netsim.HDFrameBytes) + link.TransferTime(diff),
		SNet:       netsim.HDFrameBytes + diff,
		MinStride:  cfg.MinStride,
		MaxStride:  cfg.MaxStride,
		MaxUpdates: cfg.MaxUpdates,
	}
}

// BoundsReport prints the §5.3 bound computations: traffic bounds, the
// throughput bounds, and the MAX_UPDATES search.
func BoundsReport() *stats.Table {
	t := stats.NewTable("§4.4/§5.3 analytic bounds at 80 Mbps",
		"Quantity", "Value")
	in := BoundsInputs(true, 80)
	loT, hiT := in.TrafficBoundsMbps()
	t.AddRowf("traffic lower bound (Mbps)", loT)
	t.AddRowf("traffic upper bound (Mbps)", hiT)
	t.AddRowf("throughput lower bound (FPS)", in.ThroughputLower())
	t.AddRowf("throughput upper bound (FPS)", in.ThroughputUpper())
	if mu, ok := in.MaxUpdatesFor(5, 64); ok {
		t.AddRowf("largest MAX_UPDATES with lower bound ≥ 5 FPS", mu)
	}
	return t
}

// WriteAllTables renders every table into a buffer — the single entry point
// cmd/stbench uses.
func (s *Suite) WriteAllTables() (string, error) {
	var buf bytes.Buffer
	t2, err := s.Table2()
	if err != nil {
		return "", err
	}
	buf.WriteString(t2.String() + "\n")
	t3, err := s.Table3()
	if err != nil {
		return "", err
	}
	buf.WriteString(t3.String() + "\n")
	t4, err := Table4()
	if err != nil {
		return "", err
	}
	buf.WriteString(t4.String() + "\n")
	t5, err := s.Table5()
	if err != nil {
		return "", err
	}
	buf.WriteString(t5.String() + "\n")
	t6, err := s.Table6()
	if err != nil {
		return "", err
	}
	buf.WriteString(t6.String() + "\n")
	t7, err := s.Table7()
	if err != nil {
		return "", err
	}
	buf.WriteString(t7.String() + "\n")
	_, f4, err := s.Figure4()
	if err != nil {
		return "", err
	}
	buf.WriteString(f4.String() + "\n")
	buf.WriteString(BoundsReport().String())
	return buf.String(), nil
}
