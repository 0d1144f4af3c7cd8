package harness

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// A miniature fleet run end to end: sessions spread over real shards, the
// aggregate fold is consistent, and nothing sheds when capacity is ample.
func TestFleetDriveSpreadsSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet run")
	}
	m, err := Drive("fleet/test-uniform", "fleet", Spec{
		Workload:  "mixed",
		Clients:   4,
		Frames:    24,
		EvalEvery: 8,
		Shards:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 2 || len(m.ShardSessions) != 2 {
		t.Fatalf("shard block missing: %+v", m)
	}
	var served int64
	for _, n := range m.ShardSessions {
		served += n
	}
	if served != 4 {
		t.Errorf("sessions served across shards = %d, want 4", served)
	}
	if m.Sheds != 0 {
		t.Errorf("unexpected shedding with ample capacity: %d", m.Sheds)
	}
	if m.MeanDistillSteps <= 0 {
		t.Errorf("aggregate distill stats did not fold: %+v", m)
	}
}

// The cross-shard chaos scenario contract at test scale: every recovery is
// a journal replay and none pays a full checkpoint — the journal moves
// with the session on a handoff, so the PR 4 single-shard bound (replay-only
// recovery) survives sharding. How many of the four scripted cuts are
// recovered inside the run is not asserted exactly: a client whose strides
// grew reaches its fourth diff — where the cut sits — only a few frames
// before the end, and a recovery still in flight at the last frame is
// abandoned by design (core.Client.Run's teardown), so that count depends
// on how fast the machine plays the remaining frames.
func TestFleetChaosRecoversWithoutFullResends(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet chaos run")
	}
	m, err := Drive("fleet/test-chaos", "fleet", Spec{
		Workload:      "mixed",
		Clients:       4,
		Frames:        60,
		EvalEvery:     8,
		Shards:        2,
		HashSkew:      true,
		ChaosCuts:     []netsim.Fault{midDiffCut(4)},
		DrainShard:    0,
		DrainAfter:    900 * time.Millisecond,
		EnvelopeCodec: "delta+int8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reconnects < 1 || m.Reconnects > 4 {
		t.Errorf("reconnects = %d, want at most one per client and at least one", m.Reconnects)
	}
	if m.FullResends != 0 {
		t.Errorf("full resends = %d, want 0 (journal must ride the handoff)", m.FullResends)
	}
	if m.ResumeReplays != m.Reconnects {
		t.Errorf("resume replays = %d, want every one of the %d reconnects", m.ResumeReplays, m.Reconnects)
	}
	if m.Handoffs+m.Migrated == 0 {
		t.Logf("note: drain landed after every resume (timing); recoveries stayed on-shard")
	}
	// The delta-checkpoint contract: MsgStudentFull bodies — handshake
	// checkpoints and any resume-full resend — must shrink ≥5× against the
	// raw encoding.
	if shrink := m.Extra["envelope_shrink_x"]; shrink < 5 {
		t.Errorf("envelope_shrink_x = %.1f, want ≥5", shrink)
	}
}
