package harness

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Spec declares what one end-to-end scenario runs: the workload, the link,
// the client population and the diff codec. Zero fields take defaults (see
// setDefaults) so registered scenarios only state what they vary.
type Spec struct {
	// Workload selects the video stream: an LVS category ("moving/street"),
	// a named Figure-4 stream ("drone"), or "mixed" to cycle the seven
	// categories across clients (the multi-client deployments of §1/§7).
	Workload string
	// Clients is the number of concurrent sessions (default 1).
	Clients int
	// Frames per client (default 240, enough for qualitative shapes).
	Frames int
	// EvalEvery samples the accuracy comparison every n-th frame
	// (default 4; 1 is the paper protocol).
	EvalEvery int
	// Seed is the master seed (default 11).
	Seed int64
	// Bandwidth throttles each client link; 0 means unthrottled. Ignored
	// when Trace is set.
	Bandwidth netsim.Mbps
	// Trace, when non-nil, drives a time-varying bandwidth profile on each
	// client link (the §6.4 sweep experienced live by one connection).
	Trace *netsim.Trace
	// Codec selects the student-diff codec — the one knob for how diffs
	// are encoded. Empty or "raw" ships the paper's bit-exact body; any
	// other diff codec ("int8", "prune25") is the server's for the whole
	// run, as "static:<codec>". Every diff names its codec, so clients need
	// no setting of their own.
	Codec string
	// ChaosCuts scripts mid-stream connection faults per client. A cut
	// (Stall == 0) severs the link and exercises the reconnect/resume path
	// (the driver installs a Dial callback on every client), so each
	// connection a client dials carries the script from its own position up
	// to the first cut: connection i is cut by the i-th cut, connections
	// beyond the script run clean. Stalls pause the transfer and leave the
	// connection up, so a script of stalls rides the first connection
	// whole. Download-direction cuts placed inside a student diff
	// (midDiffCut) leave the client provably behind, forcing a real journal
	// replay rather than an empty one.
	ChaosCuts []netsim.Fault
	// FrameInterval is the least time between two frames a client is handed
	// (closed loop: measured from when the previous frame was handed out);
	// zero leaves clients free-running. An outage lasts a wall-clock
	// constant (redial backoff + resume handshake), so a chaos scenario that
	// bounds what an outage costs sets this to keep the outage the same
	// number of stale frames on every host fast enough to hold the interval.
	FrameInterval time.Duration
	// Shards runs the serving tier as a fabric.Router over this many shard
	// workers instead of one serve.Manager (0 or 1 keeps the single-shard
	// path). The fleet/* families exercise it.
	Shards int
	// ShardCapacity is the per-shard admission watermark (active sessions)
	// when Shards > 1; beyond it the router sheds fresh Hellos with a
	// retryable reject and the client backs off. 0 defaults to Clients, so
	// uniformly hashed populations never shed.
	ShardCapacity int
	// HashSkew, with Shards > 1, assigns every client a session ID that
	// rendezvous-hashes to shard 0 — the adversarial hotspot that drives
	// the watermark/shedding machinery.
	HashSkew bool
	// DrainShard and DrainAfter script a mid-run shard drain: DrainAfter
	// into the run, shard index DrainShard leaves the placement set and its
	// parked sessions migrate to surviving shards. Zero DrainAfter disables.
	DrainShard int
	DrainAfter time.Duration
	// EnvelopeCodec names the compress codec (ByName form, e.g.
	// "delta+int8") for MsgStudentFull checkpoints: they go base-relative
	// for clients advertising the base (the harness hands every client a
	// clone of it, and sets Client.Base only with a codec). Empty keeps
	// checkpoints raw, so bit-exact: a handshake one is still relative to
	// the clone the client starts with.
	EnvelopeCodec string
	// LossModel activates the packet layer on every link and names its loss
	// model (netsim.LossModelByName form: "uniform:0.02",
	// "ge:pEnter,pExit,lossGood,lossBad", "threshold:mbps,below,above" — the
	// threshold form keys off Trace and requires one). Both directions are
	// wrapped; each connection gets its own deterministically-seeded model
	// instance.
	LossModel string
	// FECGroup, with the packet layer active, groups this many data packets
	// under one XOR parity packet so any single loss per group recovers
	// without a resend (0 disables FEC).
	FECGroup int
	// Reorder is the per-packet probability of deferred delivery (packet
	// reordering) when the packet layer is active.
	Reorder float64
	// Telemetry, when non-nil, is the live registry the driver instruments
	// the whole run into (server/fabric, teacher, clients, packet links) —
	// the hook stbench uses to serve -admin from a scenario. Nil disables
	// telemetry entirely.
	Telemetry *telemetry.Registry
}

// usePackets reports whether the spec activates the packet layer (MTU
// framing, loss, FEC, reordering) on the scenario's links.
func (s Spec) usePackets() bool {
	return s.LossModel != "" || s.FECGroup > 0 || s.Reorder > 0
}

func (s *Spec) setDefaults() {
	if s.Clients <= 0 {
		s.Clients = 1
	}
	if s.Frames <= 0 {
		s.Frames = 240
	}
	if s.EvalEvery <= 0 {
		s.EvalEvery = 4
	}
	if s.Seed == 0 {
		s.Seed = 11
	}
	if s.Workload == "" {
		s.Workload = "mixed"
	}
}

// BandwidthLabel renders the link profile for metrics output.
func (s Spec) BandwidthLabel() string {
	switch {
	case s.Trace != nil:
		return "trace:" + s.Trace.Name()
	case s.Bandwidth > 0:
		return fmt.Sprintf("%gMbps", float64(s.Bandwidth))
	default:
		return "unthrottled"
	}
}

// CodecLabel renders the codec for metrics output.
func (s Spec) CodecLabel() string {
	if s.Codec == "" {
		return "raw"
	}
	return s.Codec
}

// linkPolicy maps Codec onto serve.Options.LinkPolicy; empty means raw
// diffs. An unknown codec fails in serve.NewManager.
func (s Spec) linkPolicy() string {
	if s.Codec == "" || s.Codec == "raw" {
		return ""
	}
	return "static:" + s.Codec
}

// LossLabel renders the packet-layer profile for metrics output; empty when
// the scenario runs plain byte-stream links.
func (s Spec) LossLabel() string {
	if !s.usePackets() {
		return ""
	}
	if s.LossModel == "" {
		return "none"
	}
	return s.LossModel
}

// Scenario is one registered, named experiment. Names are hierarchical
// ("family/variant") so globs select whole families: -scenario
// 'bandwidth-sweep/*'. Run is nil for driver scenarios (the default
// loopback serve.Manager pipeline); custom scenarios (folded ablation and
// compression runners) provide their own Run over the same Spec knobs.
type Scenario struct {
	Name string
	Desc string
	Spec Spec
	Run  func(Spec) ([]Metrics, error)
}

// Family returns the scenario name up to the first '/'.
func (s Scenario) Family() string {
	if i := strings.IndexByte(s.Name, '/'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

var (
	regMu    sync.Mutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the global registry; duplicate names panic
// (registration happens in package init blocks).
func Register(s Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" {
		panic("harness: scenario with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match returns the scenarios whose names match pattern — an exact name or
// a path.Match glob ('*' does not cross '/', so 'bandwidth-sweep/*' selects
// exactly that family). The result is sorted by name.
func Match(pattern string) ([]Scenario, error) {
	regMu.Lock()
	if s, ok := registry[pattern]; ok {
		regMu.Unlock()
		return []Scenario{s}, nil
	}
	regMu.Unlock()
	var out []Scenario
	for _, s := range All() {
		ok, err := path.Match(pattern, s.Name)
		if err != nil {
			return nil, fmt.Errorf("harness: bad scenario pattern %q: %w", pattern, err)
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// Overrides are caller adjustments (stbench flags) applied on top of a
// scenario's spec before it runs; zero fields leave the spec untouched.
type Overrides struct {
	Frames    int
	EvalEvery int
	Seed      int64
	// Telemetry instruments every run on this registry (Spec.Telemetry).
	Telemetry *telemetry.Registry
}

// RunScenario applies overrides and executes the scenario via its custom
// Run or the default end-to-end driver.
func RunScenario(s Scenario, ov Overrides) ([]Metrics, error) {
	spec := s.Spec
	if ov.Frames > 0 {
		spec.Frames = ov.Frames
	}
	if ov.EvalEvery > 0 {
		spec.EvalEvery = ov.EvalEvery
	}
	if ov.Seed != 0 {
		spec.Seed = ov.Seed
	}
	spec.Telemetry = ov.Telemetry
	spec.setDefaults()
	if s.Run != nil {
		ms, err := s.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %s: %w", s.Name, err)
		}
		for i := range ms {
			if ms[i].Scenario == "" {
				ms[i].Scenario = s.Name
			}
			if ms[i].Family == "" {
				ms[i].Family = s.Family()
			}
		}
		return ms, nil
	}
	m, err := Drive(s.Name, s.Family(), spec)
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", s.Name, err)
	}
	return []Metrics{m}, nil
}
