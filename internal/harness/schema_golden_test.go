package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenFile pins the bench JSON schema: every field name, the header, and
// the omitempty behaviour. Changing the layout requires bumping
// SchemaVersion and regenerating with UPDATE_GOLDEN=1 — a deliberate act,
// because cmd/benchdiff and the committed CI baseline both parse this.
const goldenFile = "testdata/bench_schema.golden.json"

func goldenBench() BenchFile {
	return NewBenchFile([]Metrics{
		{
			Scenario:         "bandwidth-sweep/8mbps-c1-raw",
			Family:           "bandwidth-sweep",
			Workload:         "drone",
			Bandwidth:        "8Mbps",
			Codec:            "raw",
			Clients:          1,
			FramesPerClient:  240,
			WallSeconds:      12.5,
			AggregateFPS:     19.2,
			MeanClientFPS:    19.2,
			LatencyP50MS:     24.5,
			LatencyP99MS:     180.25,
			KeyFrameRate:     0.118,
			MeanIoU:          0.705,
			BytesUpHDMB:      74.2,
			BytesDownHDMB:    11.1,
			TeacherMeanBatch: 1.4,
			MeanDistillSteps: 4.2,
			DistillStepMS:    85.3,
		},
		{
			Scenario: "compression/diff-codecs/int8",
			Family:   "compression",
			Codec:    "int8",
			Extra: map[string]float64{
				"diff_bytes":    120032,
				"max_abs_error": 0.0021,
				"vs_raw":        3.9,
			},
		},
		{
			Scenario:        "chaos/drop-midstream",
			Family:          "chaos",
			Workload:        "drone",
			Clients:         1,
			FramesPerClient: 220,
			MeanIoU:         0.215,
			Reconnects:      2,
			ResumeReplays:   2,
			FullResends:     0,
			StaleFrames:     7,
			RecoveryMeanMS:  88.4,
			MIoUDeltaPct:    -1.1,
			Extra:           map[string]float64{"clean_miou": 0.226},
		},
		{
			Scenario:          "loss/burst",
			Family:            "loss",
			Workload:          "drone",
			Bandwidth:         "30Mbps",
			Codec:             "raw",
			Clients:           1,
			FramesPerClient:   120,
			MeanIoU:           0.21,
			LossModel:         "ge:0.02,0.25,0.002,0.5",
			FECGroup:          8,
			PacketsSent:       50412,
			PacketsLost:       1043,
			PacketsRecovered:  815,
			PacketRetransmits: 228,
			LossRatePct:       2.07,
			GoodputMbps:       27.4,
		},
		{
			Scenario:        "fleet/chaos-reconnect-to-other-shard",
			Family:          "fleet",
			Workload:        "mixed",
			Clients:         8,
			FramesPerClient: 80,
			MeanIoU:         0.21,
			Reconnects:      8,
			ResumeReplays:   8,
			Shards:          4,
			ShardSessions:   []int64{0, 3, 2, 3},
			Handoffs:        6,
			Sheds:           0,
			Migrated:        2,
			Timeseries: &Timeseries{
				IntervalMS: 250,
				Series: map[string][]float64{
					"shadowtutor_fabric_sheds_total":               {0, 2, 2},
					"shadowtutor_sessions_active{shard=\"0\"}":     {2, 3, 1},
					"shadowtutor_sessions_active{shard=\"1\"}":     {1, 2, 2},
					"shadowtutor_client_frame_seconds_count":       {40, 180, 320},
					"shadowtutor_client_frame_seconds_sum":         {1.1, 4.9, 8.6},
					"shadowtutor_distill_steps_total{shard=\"0\"}": {12, 55, 96},
				},
			},
			Extra: map[string]float64{
				"ts_peak_active_sessions": 5,
				"ts_samples":              3,
			},
		},
	})
}

func TestBenchSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenBench(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated; commit %s together with a SchemaVersion bump", goldenFile)
		return
	}

	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench JSON schema changed.\nIf intentional: bump SchemaVersion and regenerate with UPDATE_GOLDEN=1.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	want := goldenBench()
	if err := WriteFile(path, want.Results); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.SchemaVersion != SchemaVersion {
		t.Errorf("header: %+v", got)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("rows: %d != %d", len(got.Results), len(want.Results))
	}
	if got.Results[0].Scenario != want.Results[0].Scenario ||
		got.Results[0].DistillStepMS != want.Results[0].DistillStepMS ||
		got.Results[1].Extra["vs_raw"] != want.Results[1].Extra["vs_raw"] {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got.Results, want.Results)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other","schema_version":1,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("foreign schema accepted")
	}
	if err := os.WriteFile(path, []byte(`{"schema":"shadowtutor-bench","schema_version":99,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("future schema version accepted")
	}
}
