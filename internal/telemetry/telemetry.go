// Registry, metric types, and the zero-alloc record path. See doc.go for
// the package overview and operator quickstart.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindGaugeFunc
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key/value pair attached to a metric series. Labels are
// sorted by key and rendered once at registration; the record path never
// touches them.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the exposition to stay meaningful;
// negative deltas are not checked on the hot path). Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current total. A nil counter reads zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrarily settable float metric, stored as IEEE-754 bits
// in a uint64 so Set is a single atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add applies a delta via a CAS loop. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// Value returns the current value. A nil gauge reads zero.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: upper bounds are frozen at
// registration, so Observe is a linear scan over a handful of bounds plus
// two atomic updates — no allocation, no lock.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implied
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// snapshot copies the histogram state (per-bucket counts, total, sum).
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		n := uint64(h.counts[i].Load())
		s.Counts[i] = n
		s.Count += n
	}
	return s
}

// DurationBuckets are the default upper bounds (in seconds) for latency
// histograms: 250µs to 2.5s, roughly ×2.5 per step.
var DurationBuckets = []float64{0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// series is one labelled instance inside a family.
type series struct {
	labels string // rendered `k="v",k2="v2"` without braces; "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups all series sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
}

// Registry owns metric families and a trace ring. The zero value is not
// usable; call New. A nil *Registry is valid everywhere and disables
// everything it would hand out.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	trace *TraceRing
}

// New returns an empty registry with a trace ring of the default capacity.
func New() *Registry {
	return &Registry{fams: make(map[string]*family), trace: NewTraceRing(defaultTraceCap)}
}

// Default is the process-global registry used by the binaries. Libraries
// take a *Registry explicitly; nil means "telemetry off", not Default.
var Default = New()

// Trace returns the registry's event ring (nil for a nil registry).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.trace
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// lookupLocked finds or creates the family and series slot for
// name+labels; the caller holds r.mu (so the handle it then installs on
// the series is published under the same lock Snapshot reads under).
// Registration is idempotent: the same name+labels returns the existing
// series; the same name with a different kind panics (a programming
// error, caught at startup since all registration happens there).
func (r *Registry) lookupLocked(name, help string, kind Kind, labels []Label) *series {
	key := renderLabels(labels)
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", name, kind, f.kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter registered under name+labels, creating it
// on first use. Nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, KindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use. Nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, KindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the fixed-bucket histogram registered under
// name+labels. The bounds of the first registration win; they must be
// strictly increasing. Nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s histogram bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, KindHistogram, labels)
	if s.h == nil {
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.h
}

// GaugeFunc registers a callback evaluated at scrape time — the cheap way
// to expose state something else already maintains (e.g. netsim's
// LinkTotals atomics). Re-registering the same name+labels replaces the
// callback. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, KindGaugeFunc, labels)
	s.fn = fn
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	Labels string        `json:"labels,omitempty"` // rendered without braces
	Value  float64       `json:"value"`            // counter/gauge/gaugefunc value
	Hist   *HistSnapshot `json:"hist,omitempty"`
}

// HistSnapshot is a histogram's state at snapshot time. Counts are
// per-bucket (non-cumulative); Bounds excludes the implicit +Inf bucket,
// whose count is Counts[len(Bounds)].
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// FamilySnapshot is one metric family with all its series, sorted by
// label string.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a consistent-enough copy of every family, sorted by
// name (series sorted by labels). GaugeFunc callbacks are evaluated here,
// outside the registry lock order they were registered under but inside
// the registry mutex — callbacks must not re-enter the registry.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(r.fams))
	for _, f := range r.fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), Series: make([]SeriesSnapshot, 0, len(f.series))}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.c != nil:
				ss.Value = float64(s.c.Value())
			case s.g != nil:
				ss.Value = s.g.Value()
			case s.h != nil:
				h := s.h.snapshot()
				ss.Hist = &h
			case s.fn != nil:
				ss.Value = s.fn()
			}
			fs.Series = append(fs.Series, ss)
		}
		sort.Slice(fs.Series, func(i, j int) bool { return fs.Series[i].Labels < fs.Series[j].Labels })
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
