package netsim

import "testing"

func TestAdaptiveEngineHysteresis(t *testing.T) {
	e := NewAdaptiveEngine()
	at := func(loss float64) PolicyState {
		return e.Decide(LinkObservation{LossRate: loss}).State
	}
	steps := []struct {
		loss float64
		want PolicyState
	}{
		{0, LinkClear},
		{0.005, LinkClear},    // below DegradedEnter: stay clear
		{0.012, LinkDegraded}, // crossed DegradedEnter
		{0.007, LinkDegraded}, // inside the hysteresis band: hold
		{0.003, LinkClear},    // under DegradedExit: recover
		{0.08, LinkCritical},  // straight to critical from clear
		{0.04, LinkCritical},  // above CriticalExit: hold
		{0.02, LinkDegraded},  // under CriticalExit: step down
		{0.065, LinkCritical}, // re-enter critical from degraded
		{0.001, LinkClear},    // collapse straight back to clear
	}
	for i, s := range steps {
		if got := at(s.loss); got != s.want {
			t.Fatalf("step %d (loss %.3f): state %v, want %v", i, s.loss, got, s.want)
		}
	}
}

func TestAdaptiveEngineDecisions(t *testing.T) {
	e := NewAdaptiveEngine()
	clear := e.Decide(LinkObservation{})
	if clear.Codec != "raw" || clear.StrideScale != 1 || clear.FECGroup >= 0 {
		t.Fatalf("clear decision %+v", clear)
	}
	deg := e.Decide(LinkObservation{LossRate: 0.02})
	if deg.Codec != "int8" || deg.FECGroup <= 0 {
		t.Fatalf("degraded decision %+v", deg)
	}
	crit := e.Decide(LinkObservation{LossRate: 0.2})
	if crit.Codec != "int8" || crit.StrideScale <= deg.StrideScale || crit.FECGroup >= deg.FECGroup {
		t.Fatalf("critical decision %+v (degraded %+v)", crit, deg)
	}
}

func TestPolicyByName(t *testing.T) {
	if p, err := PolicyByName("adaptive"); err != nil || p.Name() != "adaptive" {
		t.Fatalf("adaptive: %v, %v", p, err)
	}
	p, err := PolicyByName("static:int8")
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Decide(LinkObservation{LossRate: 0.5}); d.Codec != "int8" || d.StrideScale != 1 {
		t.Fatalf("static decision %+v", d)
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyStateString(t *testing.T) {
	for s, want := range map[PolicyState]string{
		LinkClear: "clear", LinkDegraded: "degraded", LinkCritical: "critical",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
