package harness

import "repro/internal/netsim"

// The loss/* family measures the packet tier (internal/netsim): MTU
// framing, seeded loss models and XOR-parity FEC, all on live end-to-end
// sessions. Three canonical impaired links cover the loss-process space —
// independent drops, bursty drops, and drops keyed to a fading bandwidth
// trace:
var lossRegimes = []struct {
	key, model string
	bw         netsim.Mbps
	trace      *netsim.Trace
	desc       string
}{
	{key: "uniform", model: "uniform:0.02", bw: 30,
		desc: "2% independent loss at 30 Mbps"},
	{key: "burst", model: "ge:0.02,0.25,0.002,0.5", bw: 30,
		desc: "Gilbert-Elliott bursts (50% loss in bad state) at 30 Mbps"},
	{key: "fade", model: "threshold:24,0.002,0.15", trace: WifiFade,
		desc: "15% loss whenever the wifi-fade trace dips below 24 Mbps"},
}

// regimeSpec overlays one named loss regime's link fields on a spec.
func regimeSpec(key string, s Spec) Spec {
	for _, r := range lossRegimes {
		if r.key == key {
			s.LossModel = r.model
			s.Bandwidth = r.bw
			s.Trace = r.trace
			return s
		}
	}
	panic("harness: unknown loss regime " + key)
}

func init() {
	for _, r := range lossRegimes {
		Register(Scenario{
			Name: "loss/" + r.key,
			Desc: "packet-level loss regime: " + r.desc + ", FEC group 8",
			Spec: regimeSpec(r.key, Spec{Workload: "drone", Clients: 1, Frames: 120, FECGroup: 8}),
		})
	}
	Register(Scenario{
		Name: "loss/reorder",
		Desc: "10% packet reordering over 1% uniform loss, no FEC — ordering recovery in the reassembly path",
		Spec: Spec{Workload: "drone", Clients: 1, Frames: 120, Bandwidth: 30,
			LossModel: "uniform:0.01", Reorder: 0.10},
	})
}
