package harness

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// promLine matches one Prometheus text-format sample line:
// name{labels} value. Labels are optional; the value is any float token
// (including +Inf/NaN).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// checkPromFormat validates every non-empty line of a /metrics body.
func checkPromFormat(t *testing.T, body string) {
	t.Helper()
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not valid Prometheus text format: %q", i+1, line)
		}
	}
}

// scrape fetches one /metrics body from the admin endpoint.
func scrape(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %s", resp.Status)
	}
	return string(b), nil
}

// The acceptance path end to end: a fleet scenario runs with a live
// registry behind a real admin HTTP endpoint; a mid-run scrape sees
// per-shard occupancy gauges and the latency histograms in valid
// Prometheus format, and the gauges return to zero once the run ends.
func TestFleetDriveServesLiveMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet run with admin scrapes")
	}
	reg := telemetry.New()
	admin, err := telemetry.NewAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close(time.Second)

	type result struct {
		m   Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Drive("fleet/test-telemetry", "fleet", Spec{
			Workload:  "mixed",
			Clients:   4,
			Frames:    48,
			EvalEvery: 8,
			Shards:    2,
			Telemetry: reg,
		})
		done <- result{m, err}
	}()

	// Poll /metrics while the run is live until a shard reports occupancy —
	// the scrape must observe the system mid-flight, not post-mortem.
	var live string
	deadline := time.After(30 * time.Second)
poll:
	for {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			t.Fatal("run finished before a scrape saw live occupancy")
		case <-deadline:
			t.Fatal("no live occupancy observed within 30s")
		case <-time.After(2 * time.Millisecond):
			body, err := scrape(admin.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, `shadowtutor_sessions_active{shard="`) &&
					!strings.HasSuffix(line, " 0") {
					live = body
					break poll
				}
			}
		}
	}
	checkPromFormat(t, live)
	for _, want := range []string{
		`shadowtutor_sessions_active{shard="0"}`,
		`shadowtutor_sessions_active{shard="1"}`,
		`shadowtutor_fabric_routed_total`,
		`shadowtutor_fabric_sheds_total`,
		`shadowtutor_distill_step_seconds_bucket{shard="0",le="`,
		`shadowtutor_client_frame_seconds_bucket{le="`,
		`shadowtutor_teacher_queue_depth{shard="`,
	} {
		if !strings.Contains(live, want) {
			t.Errorf("mid-run /metrics missing %q", want)
		}
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	// After the run every session unwound: the tier-wide occupancy gauges
	// must read zero on a final scrape, and the counters stay monotone.
	final, err := scrape(admin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	checkPromFormat(t, final)
	for _, line := range strings.Split(final, "\n") {
		if strings.HasPrefix(line, "shadowtutor_sessions_active{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("occupancy gauge nonzero after run: %q", line)
		}
	}
	if !strings.Contains(final, "shadowtutor_sessions_completed_total") {
		t.Error("final /metrics missing completion counters")
	}
}
