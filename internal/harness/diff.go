package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Direction states which way a metric is allowed to move.
type Direction int

// Directions.
const (
	// HigherBetter fails when the current value drops more than tol below
	// the baseline (throughput).
	HigherBetter Direction = iota
	// LowerBetter fails when the current value rises more than tol above
	// the baseline (latency).
	LowerBetter
	// BothWays fails on a relative move of more than tol in either
	// direction (behavioural invariants like the key-frame rate).
	BothWays
	// Informational never fails; drift is reported as a note.
	Informational
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case HigherBetter:
		return "higher-better"
	case LowerBetter:
		return "lower-better"
	case BothWays:
		return "both-ways"
	case Informational:
		return "informational"
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Check is the gate definition for one metric.
type Check struct {
	Dir Direction
	// Tol is the allowed relative move (0.5 = 50%). Tolerances default
	// generous: the gate exists to catch order-of-magnitude regressions
	// (a 10× slower step, halved throughput) across unlike CI
	// machines, not single-digit drift.
	Tol float64
}

// DefaultChecks maps Metrics JSON keys (and "extra.<key>" entries) to their
// gate. Metrics absent here are informational.
var DefaultChecks = map[string]Check{
	"aggregate_fps":      {HigherBetter, 0.5},
	"mean_client_fps":    {HigherBetter, 0.5},
	"latency_p50_ms":     {LowerBetter, 1.0},
	"latency_p99_ms":     {LowerBetter, 2.0},
	"mean_iou":           {HigherBetter, 0.25},
	"key_frame_rate":     {BothWays, 0.5},
	"bytes_up_hd_mb":     {BothWays, 0.6},
	"bytes_down_hd_mb":   {BothWays, 0.6},
	"mean_distill_steps": {BothWays, 0.5},
	"distill_step_ms":    {LowerBetter, 2.0},
	"wall_seconds":       {Informational, 0},

	// Resilience metrics (chaos families). Reconnects is deterministic —
	// it equals the scripted fault count, so any drift is a bug. Replay
	// and full-resend counts are small integers; a doubling (e.g. replay
	// resumes silently degrading to full checkpoints) trips the gate.
	// Recovery latency, stale-frame counts and the mIoU delta are
	// machine-speed-dependent, so they only note drift.
	"reconnects":       {BothWays, 0},
	"resume_replays":   {BothWays, 0.9},
	"full_resends":     {BothWays, 0.9},
	"stale_frames":     {Informational, 0},
	"recovery_mean_ms": {Informational, 0},
	"miou_delta_pct":   {Informational, 0},

	// Sharded-fabric metrics (fleet families). The shard count is part of
	// the scenario definition — any drift is a harness bug. Per-shard
	// occupancy ("shard_sessions.<i>") is deterministic under rendezvous
	// hashing of the scripted ID population, but drain timing can
	// redistribute a few completions, so the gate trips only on a drop to
	// (near) zero or roughly a doubling — note the tolerance must be < 1:
	// a count collapsing to 0 is rel = -1 exactly, and a gate of 1.0 could
	// never fire on any decrease. Handoff/shed/migration counts depend on
	// where in the run the drain lands relative to each client's outage,
	// so they only note drift.
	"shards":         {BothWays, 0},
	"shard_sessions": {BothWays, 0.9},
	"handoffs":       {Informational, 0},
	"sheds":          {Informational, 0},
	"migrated":       {Informational, 0},

	// Packet-layer metrics (loss families). The measured loss rate is a
	// deterministic function of the seeded loss model and the packet count,
	// but the packet count itself moves with key-frame timing, so the gate
	// only trips when the rate lands in a different regime entirely (e.g. the
	// loss model silently disconnected and it reads ~0). Raw packet counters
	// and goodput are machine-speed-dependent: informational.
	"loss_rate_pct":      {BothWays, 0.75},
	"fec_group":          {BothWays, 0},
	"packets_sent":       {Informational, 0},
	"packets_lost":       {Informational, 0},
	"packets_recovered":  {Informational, 0},
	"packet_retransmits": {Informational, 0},
	"goodput_mbps":       {Informational, 0},

	// Delta-checkpoint metrics (scenarios with Spec.EnvelopeCodec). The
	// shrink ratio is the delta-checkpoint contract: MsgStudentFull bytes —
	// handshake checkpoints plus resume-full resends, the only model state
	// that crosses a boundary whole — against their raw baseline
	// (driver.go). A pristine handshake checkpoint is all bit-copy headers,
	// so the baselines read in the hundreds; losing the delta path reads
	// ~1× and trips immediately, and a run whose resumes fall back to full
	// resends of trained weights drops toward the int8 payload ratio and
	// trips too. The absolute byte count varies with scripted resume
	// timing, so it only notes drift.
	"extra.envelope_shrink_x": {HigherBetter, 0.15},
	"extra.full_resend_bytes": {Informational, 0},
}

// perShardCheck resolves "shard_sessions.<i>" keys onto the family-wide
// "shard_sessions" check so per-index metrics gate without enumerating
// shard counts here.
func perShardCheck(key string) (Check, bool) {
	if strings.HasPrefix(key, "shard_sessions.") {
		c, ok := DefaultChecks["shard_sessions"]
		return c, ok
	}
	c, ok := DefaultChecks[key]
	return c, ok
}

// Regression is one failed gate.
type Regression struct {
	Scenario string
	Metric   string
	Dir      Direction
	Tol      float64
	Base     float64
	Cur      float64
}

// String renders one regression line.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%s, tol %.0f%%)",
		r.Scenario, r.Metric, r.Base, r.Cur, r.Dir, r.Tol*100)
}

// metricValues flattens one Metrics row into the gated numeric fields,
// keyed exactly as the JSON schema spells them.
func metricValues(m Metrics) map[string]float64 {
	out := map[string]float64{
		"wall_seconds":       m.WallSeconds,
		"aggregate_fps":      m.AggregateFPS,
		"mean_client_fps":    m.MeanClientFPS,
		"latency_p50_ms":     m.LatencyP50MS,
		"latency_p99_ms":     m.LatencyP99MS,
		"key_frame_rate":     m.KeyFrameRate,
		"mean_iou":           m.MeanIoU,
		"bytes_up_hd_mb":     m.BytesUpHDMB,
		"bytes_down_hd_mb":   m.BytesDownHDMB,
		"mean_distill_steps": m.MeanDistillSteps,
		"distill_step_ms":    m.DistillStepMS,
		"reconnects":         float64(m.Reconnects),
		"resume_replays":     float64(m.ResumeReplays),
		"full_resends":       float64(m.FullResends),
		"stale_frames":       float64(m.StaleFrames),
		"recovery_mean_ms":   m.RecoveryMeanMS,
		"miou_delta_pct":     m.MIoUDeltaPct,
		"shards":             float64(m.Shards),
		"handoffs":           float64(m.Handoffs),
		"sheds":              float64(m.Sheds),
		"migrated":           float64(m.Migrated),
		"fec_group":          float64(m.FECGroup),
		"packets_sent":       float64(m.PacketsSent),
		"packets_lost":       float64(m.PacketsLost),
		"packets_recovered":  float64(m.PacketsRecovered),
		"packet_retransmits": float64(m.PacketRetransmits),
		"loss_rate_pct":      m.LossRatePct,
		"goodput_mbps":       m.GoodputMbps,
	}
	for i, n := range m.ShardSessions {
		out[fmt.Sprintf("shard_sessions.%d", i)] = float64(n)
	}
	for k, v := range m.Extra {
		out["extra."+k] = v
	}
	return out
}

// Compare gates current against base. tolOverride remaps per-metric
// tolerances ("latency_p99_ms" → 3.0); an override on a metric without a
// default check gates it BothWays. A scenario present in base but missing
// from current is itself a regression — coverage must not silently shrink.
// notes report non-fatal drift (new scenarios, informational metrics moving
// more than 2×).
func Compare(base, current BenchFile, tolOverride map[string]float64) (regs []Regression, notes []string) {
	curByName := map[string]Metrics{}
	for _, m := range current.Results {
		curByName[m.Scenario] = m
	}
	baseNames := map[string]bool{}

	for _, bm := range base.Results {
		baseNames[bm.Scenario] = true
		cm, ok := curByName[bm.Scenario]
		if !ok {
			regs = append(regs, Regression{Scenario: bm.Scenario, Metric: "(scenario missing from current run)"})
			continue
		}
		// Union of both sides' keys: an extra.* metric present on only one
		// side must still be visited (it reports as drift below).
		bv, cv := metricValues(bm), metricValues(cm)
		keySet := map[string]bool{}
		for k := range bv {
			keySet[k] = true
		}
		for k := range cv {
			keySet[k] = true
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b, c := bv[k], cv[k]
			check, hasCheck := perShardCheck(k)
			if tol, ok := tolOverride[k]; ok {
				if !hasCheck {
					check = Check{Dir: BothWays}
				}
				check.Tol = tol
				hasCheck = true
			}
			if !hasCheck {
				check = Check{Dir: Informational}
			}
			if b == 0 {
				// No baseline signal: relative gating is undefined. A value
				// appearing where the baseline had none is drift, not a gate.
				if c != 0 {
					notes = append(notes, fmt.Sprintf("%s: %s has no baseline (now %.4g)", bm.Scenario, k, c))
				}
				continue
			}
			rel := (c - b) / b
			bad := false
			switch check.Dir {
			case HigherBetter:
				bad = rel < -check.Tol
			case LowerBetter:
				// A measured-before metric that reads 0 now did not improve —
				// its measurement vanished (omitempty zero). HigherBetter and
				// BothWays catch this via rel = -1; LowerBetter must not let
				// it pass as a win.
				bad = rel > check.Tol || c == 0
			case BothWays:
				bad = rel > check.Tol || rel < -check.Tol
			case Informational:
				if rel > 1 || rel < -0.5 {
					notes = append(notes, fmt.Sprintf("%s: %s drifted %.4g -> %.4g (informational)", bm.Scenario, k, b, c))
				}
			}
			if bad {
				regs = append(regs, Regression{
					Scenario: bm.Scenario, Metric: k,
					Dir: check.Dir, Tol: check.Tol, Base: b, Cur: c,
				})
			}
		}
	}
	for _, cm := range current.Results {
		if !baseNames[cm.Scenario] {
			notes = append(notes, fmt.Sprintf("%s: new scenario, no baseline to gate against", cm.Scenario))
		}
	}
	return regs, notes
}

// ParseTolerances parses repeated "metric=frac" flags into an override map.
func ParseTolerances(specs []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range specs {
		k, v, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("harness: tolerance %q not of form metric=frac", s)
		}
		// ParseFloat consumes the whole value, so a typo like "0.7x" or a
		// ;-joined pair fails loudly (exit 2) instead of gating with a
		// partial tolerance set.
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("harness: bad tolerance %q", s)
		}
		out[strings.TrimSpace(k)] = f
	}
	return out, nil
}
