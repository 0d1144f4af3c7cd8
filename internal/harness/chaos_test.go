package harness

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/transport"
)

// TestChaosDropMidstream is the acceptance contract of the resilience
// subsystem at scenario scale: the registered chaos/drop-midstream run —
// two scripted mid-stream connection cuts — must recover both drops
// through the Resume handshake with at most one full-student retransfer
// (journal replay carries the rest), and land within 2 percentage points
// of the fault-free twin's mIoU.
func TestChaosDropMidstream(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario run is a full end-to-end measurement")
	}
	scs, err := Match("chaos/drop-midstream")
	if err != nil || len(scs) != 1 {
		t.Fatalf("scenario lookup: %v (%d matches)", err, len(scs))
	}
	// The registered smoke size: both cuts land early (byte offsets
	// around the second and fifth student diffs), leaving plenty of
	// post-recovery frames to amortise the accuracy dent.
	ms, err := RunScenario(scs[0], Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d metric rows, want 1", len(ms))
	}
	m := ms[0]

	if m.Reconnects != 2 {
		t.Errorf("reconnects = %d, want exactly 2 (one per scripted cut)", m.Reconnects)
	}
	if m.FullResends > 1 {
		t.Errorf("full_resends = %d, want <= 1", m.FullResends)
	}
	if m.ResumeReplays < 1 {
		t.Errorf("resume_replays = %d, want >= 1 (journal replay must carry a recovery)", m.ResumeReplays)
	}
	if m.StaleFrames == 0 {
		t.Error("stale_frames = 0: the client must keep inferring while disconnected")
	}
	if m.RecoveryMeanMS <= 0 {
		t.Error("recovery latency must be measured")
	}
	// Two accuracy-delta bounds with different jobs. The live delta is
	// machine-speed dependent: updates apply asynchronously, so host speed
	// shifts which frame each post-recovery diff lands on and, through the
	// adaptive stride, the whole trajectory (observed ~1pp on fast hosts,
	// ~3pp on slower ones with identical reconnect/replay behaviour) — it
	// stays a loose sanity check for a recovery that loses the session's
	// learning outright. The deterministic twin replays the same faults on
	// the simulator's virtual time, where the recovered diffs land on the
	// same frames on every machine, so it carries the tight 2pp contract.
	if math.Abs(m.MIoUDeltaPct) > 4.0 {
		t.Errorf("live mIoU delta vs fault-free run = %.2f pp, want within 4pp (faulty %.4f, clean %.4f)",
			m.MIoUDeltaPct, m.MeanIoU, m.Extra["clean_miou"])
	}
	simDelta, ok := m.Extra["sim_miou_delta_pp"]
	if !ok {
		t.Fatal("missing sim_miou_delta_pp: the deterministic simulated twin must run")
	}
	if math.Abs(simDelta) > 2.0 {
		t.Errorf("simulated-twin mIoU delta = %.2f pp, want within 2pp (sim clean %.4f)",
			simDelta, m.Extra["sim_clean_miou"])
	}
	if m.MeanIoU <= 0 {
		t.Error("faulty run must still measure accuracy")
	}
	t.Logf("chaos/drop-midstream: reconnects=%d replays=%d fulls=%d stale=%d recovery=%.1fms ΔmIoU=%.2fpp simΔ=%.2fpp",
		m.Reconnects, m.ResumeReplays, m.FullResends, m.StaleFrames, m.RecoveryMeanMS, m.MIoUDeltaPct, simDelta)
}

// midDiffCut must tear every diff it is aimed at, the smallest included: a
// relative diff whose key frame skipped optimisation is nothing but
// "unchanged" tensor headers — well under 1 kB, and still longer than the
// cut offset.
func TestMidDiffCutLandsInsideEveryDiff(t *testing.T) {
	st := nn.NewStudentForWire()
	st.SetPartial(true)
	body, err := transport.EncodeStudentDiff(transport.StudentDiff{Params: nn.TrainableSubset(st.Params), Ref: st.Params})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 1024 {
		t.Fatalf("unchanged diff is %d bytes, want ≤ 1 kB", len(body))
	}
	cut := midDiffCut(2)
	if cut.AfterBytes <= transport.FrameOverhead || cut.AfterBytes >= int64(transport.FrameOverhead+len(body)) {
		t.Fatalf("cut %d bytes into a message of %d+%d: not inside its body", cut.AfterBytes, transport.FrameOverhead, len(body))
	}
}
