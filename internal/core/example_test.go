package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
)

// The stride controller of Algorithm 2: metrics above THRESHOLD stretch the
// distance to the next key frame, metrics below shrink it, clamped to
// [MIN_STRIDE, MAX_STRIDE].
func ExampleNextStride() {
	cfg := core.DefaultConfig() // THRESHOLD 0.8, strides 8..64
	fmt.Printf("at threshold: %.0f\n", core.NextStride(cfg, 16, 0.8))
	fmt.Printf("perfect:      %.0f\n", core.NextStride(cfg, 16, 1.0))
	fmt.Printf("poor:         %.0f\n", core.NextStride(cfg, 16, 0.2))
	fmt.Printf("clamped high: %.0f\n", core.NextStride(cfg, 64, 1.0))
	// Output:
	// at threshold: 16
	// perfect:      32
	// poor:         8
	// clamped high: 64
}

// Component latencies follow the paper's Table 1 measurements; partial
// distillation's cheaper backward pass shows up in t_sd.
func ExamplePaperLatencies() {
	partial := core.PaperLatencies(true)
	full := core.PaperLatencies(false)
	fmt.Println("t_si:", partial.StudentInference)
	fmt.Println("t_sd partial:", partial.DistillStep, "full:", full.DistillStep)
	// Output:
	// t_si: 143ms
	// t_sd partial: 13ms full: 18ms
}

// Naive offloading pays the full synchronous round trip per frame, which is
// why its throughput tracks bandwidth directly (§6.4).
func ExampleNaiveFPS() {
	lat := core.PaperLatencies(true)
	for _, bw := range []netsim.Mbps{80, 20} {
		link := netsim.Link{Bandwidth: bw}
		fmt.Printf("%2.0f Mbps: %.1f FPS\n", float64(bw), core.NaiveFPS(link, lat))
	}
	// Output:
	// 80 Mbps: 2.2 FPS
	// 20 Mbps: 0.7 FPS
}
