// Package harness is the declarative scenario layer over the whole system:
// named end-to-end scenarios (bandwidth profile — fixed or time-varying
// trace — × client count × diff codec × video workload) run over a loopback
// serve.Manager, producing structured, versioned, machine-readable metrics.
// cmd/stbench drives it (-scenario, -json) and cmd/benchdiff compares two
// metric files under per-metric tolerances — the CI perf-regression gate.
package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the bench-file format; SchemaVersion is bumped on any
// breaking change to the Metrics JSON layout (a golden test pins it).
// Version 2 added the session-resilience block (reconnects, resume
// replays, full resends, stale frames, recovery latency, mIoU delta).
// Version 3 added the sharded-fabric block (shard count, per-shard
// sessions served, handoffs, sheds, drain migrations).
// Version 4 added the packet-layer block (loss model, FEC group, packet
// counters, loss rate, goodput) for the loss/* families.
// Version 5 added sampled telemetry time series (the timeseries block plus
// ts_* Extra summaries) captured by polling the live registry during a run.
// Version 6 dropped the teacher's mean batch, which read 1 on every row: a shard's
// teacher labels one frame a call.
// Version 7 dropped the timeseries block and its ts_* Extra summaries: no
// gated scenario sampled, and no baseline row carried one.
const (
	Schema        = "shadowtutor-bench"
	SchemaVersion = 7
)

// Metrics is the structured result of one scenario run. Field meanings:
// throughput and latency are measured client-side over the real loopback
// connection; bytes are wire bytes scaled to the paper's HD regime
// (netsim.HDScale); teacher/distill numbers come from the shared
// serve.Manager. Zero values mean "not measured by this scenario family".
type Metrics struct {
	Scenario        string `json:"scenario"`
	Family          string `json:"family"`
	Workload        string `json:"workload,omitempty"`
	Bandwidth       string `json:"bandwidth,omitempty"`
	Codec           string `json:"codec,omitempty"`
	Clients         int    `json:"clients,omitempty"`
	FramesPerClient int    `json:"frames_per_client,omitempty"`

	WallSeconds   float64 `json:"wall_seconds,omitempty"`
	AggregateFPS  float64 `json:"aggregate_fps,omitempty"`
	MeanClientFPS float64 `json:"mean_client_fps,omitempty"`
	LatencyP50MS  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP99MS  float64 `json:"latency_p99_ms,omitempty"`

	KeyFrameRate float64 `json:"key_frame_rate,omitempty"`
	MeanIoU      float64 `json:"mean_iou,omitempty"`

	BytesUpHDMB   float64 `json:"bytes_up_hd_mb,omitempty"`
	BytesDownHDMB float64 `json:"bytes_down_hd_mb,omitempty"`

	MeanDistillSteps float64 `json:"mean_distill_steps,omitempty"`
	DistillStepMS    float64 `json:"distill_step_ms,omitempty"`

	// Session-resilience metrics, populated by chaos scenarios (and any
	// run where a client reconnected). Reconnects counts successful
	// re-attachments; FullResends counts post-handshake full checkpoints
	// (journal replay keeps it at zero); StaleFrames counts frames
	// inferred on stale weights while disconnected; RecoveryMeanMS is the
	// mean drop-detected → recovered latency; MIoUDeltaPct is the
	// percentage-point accuracy cost versus the same scenario without
	// faults (chaos families only).
	Reconnects     int     `json:"reconnects,omitempty"`
	ResumeReplays  int     `json:"resume_replays,omitempty"`
	FullResends    int     `json:"full_resends,omitempty"`
	StaleFrames    int     `json:"stale_frames,omitempty"`
	RecoveryMeanMS float64 `json:"recovery_mean_ms,omitempty"`
	MIoUDeltaPct   float64 `json:"miou_delta_pct,omitempty"`

	// Sharded-fabric metrics, populated when the scenario runs the serving
	// tier as a fabric.Router over >1 shard workers (fleet families).
	// ShardSessions is sessions served per shard index — the occupancy
	// profile rendezvous hashing produced; Handoffs counts resumes served
	// by pulling the parked session from another shard; Sheds counts
	// admission-control retryable rejects at the capacity watermark;
	// Migrated counts parked sessions moved by shard drains.
	Shards        int     `json:"shards,omitempty"`
	ShardSessions []int64 `json:"shard_sessions,omitempty"`
	Handoffs      int64   `json:"handoffs,omitempty"`
	Sheds         int64   `json:"sheds,omitempty"`
	Migrated      int64   `json:"migrated,omitempty"`

	// Packet-layer metrics, populated when the scenario activates the
	// netsim packet tier (loss families). LossModel echoes the spec's
	// loss-model string and FECGroup the configured parity group size.
	// Packet counters sum both link directions across every connection;
	// LossRatePct is simulated drops over packets sent (before FEC
	// recovery), and GoodputMbps is delivered application payload over
	// wall time on the server→client direction.
	LossModel         string  `json:"loss_model,omitempty"`
	FECGroup          int     `json:"fec_group,omitempty"`
	PacketsSent       int64   `json:"packets_sent,omitempty"`
	PacketsLost       int64   `json:"packets_lost,omitempty"`
	PacketsRecovered  int64   `json:"packets_recovered,omitempty"`
	PacketRetransmits int64   `json:"packet_retransmits,omitempty"`
	LossRatePct       float64 `json:"loss_rate_pct,omitempty"`
	GoodputMbps       float64 `json:"goodput_mbps,omitempty"`

	// Extra carries family-specific metrics (ablation columns, codec byte
	// counts). Keys are stable snake_case; benchdiff treats them as
	// informational unless given an explicit tolerance ("extra.<key>").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchFile is the on-disk container cmd/stbench emits and cmd/benchdiff
// consumes.
type BenchFile struct {
	Schema        string    `json:"schema"`
	SchemaVersion int       `json:"schema_version"`
	Results       []Metrics `json:"results"`
}

// NewBenchFile wraps results with the current schema header.
func NewBenchFile(results []Metrics) BenchFile {
	return BenchFile{Schema: Schema, SchemaVersion: SchemaVersion, Results: results}
}

// Validate checks the schema header.
func (f BenchFile) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("harness: schema %q, want %q", f.Schema, Schema)
	}
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("harness: schema version %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	return nil
}

// WriteFile writes results as indented JSON to path.
func WriteFile(path string, results []Metrics) error {
	b, err := json.MarshalIndent(NewBenchFile(results), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile parses and validates a bench file.
func ReadFile(path string) (BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return BenchFile{}, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return BenchFile{}, fmt.Errorf("harness: parsing %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return BenchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
