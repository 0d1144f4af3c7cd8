package harness

import (
	"strings"
	"testing"
)

// TestDriveWithPacketLoss runs a short session over lossy, reordering,
// FEC-protected packet links and checks the packet-layer metrics land.
func TestDriveWithPacketLoss(t *testing.T) {
	m, err := Drive("test/loss", "test", Spec{
		Workload:  "fixed/people",
		Clients:   1,
		Frames:    30,
		EvalEvery: 8,
		Seed:      7,
		Bandwidth: 60,
		LossModel: "uniform:0.05",
		FECGroup:  4,
		Reorder:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.LossModel != "uniform:0.05" || m.FECGroup != 4 {
		t.Errorf("packet labels not carried: %+v", m)
	}
	if m.PacketsSent <= 0 || m.PacketsLost <= 0 {
		t.Errorf("packet counters missing: sent %d lost %d", m.PacketsSent, m.PacketsLost)
	}
	if m.LossRatePct <= 0 || m.LossRatePct > 20 {
		t.Errorf("loss rate %v%% not in a 5%%-model's plausible band", m.LossRatePct)
	}
	if m.PacketsRecovered <= 0 {
		t.Errorf("FEC never recovered a loss: %+v", m)
	}
	if m.GoodputMbps <= 0 {
		t.Errorf("goodput missing: %+v", m)
	}
	if m.MeanIoU <= 0 || m.MeanIoU > 1 {
		t.Errorf("mIoU out of range under loss: %v", m.MeanIoU)
	}
}

// TestDriveAdaptivePolicy runs a session under the adaptive link policy on
// a bursty link: diffs carry the policy's decisions end to end and the
// codec label reports "adaptive".
func TestDriveAdaptivePolicy(t *testing.T) {
	m, err := Drive("test/adaptive", "test", Spec{
		Workload:  "fixed/people",
		Clients:   1,
		Frames:    30,
		EvalEvery: 8,
		Seed:      7,
		Bandwidth: 60,
		LossModel: "ge:0.05,0.25,0.002,0.5",
		Codec:     "adaptive",
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Codec != "adaptive" {
		t.Errorf("codec label %q, want adaptive", m.Codec)
	}
	if m.KeyFrameRate <= 0 {
		t.Errorf("no key frames distilled: %+v", m)
	}
	if m.MeanIoU <= 0 || m.MeanIoU > 1 {
		t.Errorf("mIoU out of range: %v", m.MeanIoU)
	}
}

// TestDrivePacketsWithChaos cuts a lossy, reordering, FEC-protected link
// twice mid-diff: the fault stage sits above the packet layer, so each cut
// lands between packets and the session resumes from its journal as it does
// on a plain byte stream.
func TestDrivePacketsWithChaos(t *testing.T) {
	m, err := Drive("test/loss-chaos", "test", Spec{
		Workload:  "drone",
		Clients:   1,
		Frames:    120,
		EvalEvery: 8,
		Seed:      7,
		Bandwidth: 30,
		LossModel: "uniform:0.02",
		FECGroup:  8,
		Reorder:   0.05,
		ChaosCuts: dropMidstreamCuts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reconnects != 2 {
		t.Errorf("reconnects = %d, want exactly 2 (one per scripted cut)", m.Reconnects)
	}
	if m.ResumeReplays < 1 {
		t.Errorf("resume_replays = %d, want >= 1", m.ResumeReplays)
	}
	if m.FullResends != 0 {
		t.Errorf("full_resends = %d, want 0", m.FullResends)
	}
	if m.PacketsLost <= 0 {
		t.Errorf("packet layer saw no loss: %+v", m)
	}
	if m.MeanIoU <= 0 || m.MeanIoU > 1 {
		t.Errorf("mIoU out of range: %v", m.MeanIoU)
	}
}

func TestDriveRejectsBadPacketCombos(t *testing.T) {
	for _, codec := range []string{"nope", "delta+int8"} {
		if _, err := Drive("test/bad", "test", Spec{
			Workload: "fixed/people", Frames: 10, Codec: codec,
		}); err == nil || !strings.Contains(err.Error(), codec) {
			t.Errorf("diff codec %q not rejected: %v", codec, err)
		}
	}
	if _, err := Drive("test/bad", "test", Spec{
		Workload: "fixed/people", Frames: 10,
		LossModel: "threshold:24,0.002,0.15", // threshold needs a Trace
	}); err == nil {
		t.Error("threshold model without trace not rejected")
	}
	if _, err := Drive("test/bad", "test", Spec{
		Workload: "fixed/people", Frames: 10,
		LossModel: "nonsense:1",
	}); err == nil {
		t.Error("unknown loss model not rejected")
	}
}

// The registered loss regimes must all parse and the adaptive-vs-static
// statics must cover raw and codec+FEC configurations.
func TestLossRegimesWellFormed(t *testing.T) {
	for _, r := range lossRegimes {
		spec := regimeSpec(r.key, Spec{Workload: "drone"})
		spec.setDefaults()
		if !spec.usePackets() {
			t.Errorf("regime %s does not activate the packet layer", r.key)
		}
		if _, err := packetOptions(spec, 1, nil); err != nil {
			t.Errorf("regime %s: %v", r.key, err)
		}
	}
	fec := false
	for _, st := range lossStatics {
		if st.fec > 0 {
			fec = true
		}
	}
	if !fec {
		t.Error("no static configuration exercises FEC")
	}
}
