// Package telemetry is the unified observability layer of the stack: a
// zero-dependency metrics registry, structured logging over log/slog, and
// a sim-timeline tracer exporting Chrome trace_event JSON.
//
// The Mess methodology is a profiling instrument, and an instrument whose
// own runtime is opaque cannot be trusted at scale. Before this package,
// runtime state lived in disconnected surfaces (charz.Stats, the curve
// client's circuit state, messcurved /v1/stats, messperf rows) with no
// common export. Every subsystem now registers into one Registry, and every
// long-running phase can record spans into one Tracer, so a fleet operator
// scrapes /metrics and a performance engineer opens a run in Perfetto
// instead of reading ad-hoc dumps.
//
// Design constraints, in priority order:
//
//   - Hot-path cost: Counter.Add, Gauge.Set and Histogram.Observe are a
//     single atomic op (plus a bucket scan for histograms) and never
//     allocate — they are safe at request-lifecycle frequency. All metric
//     methods and all Tracer methods are nil-receiver-safe, so
//     uninstrumented configurations pay one predictable branch, not an
//     interface call or a lock.
//   - Snapshot-on-read: the registry holds live atomics; encoders load
//     them at scrape time. Nothing is aggregated on the write path, and
//     read-time funcs (CounterFunc/GaugeFunc) re-export existing counter
//     surfaces — charz.Stats, curvestore.ServerStats — without touching
//     their hot paths at all.
//   - Zero dependencies: stdlib only, so every internal package (sim
//     included) may import it without cycles or new modules.
//
// Metric names follow the Prometheus convention (snake_case, _total for
// counters, base-unit suffixes) and may carry a fixed label set baked into
// the name at registration — `mess_charz_hits_total{tier="disk"}` — so the
// hot path never formats labels. Registration is get-or-create: two
// subsystems registering the same name share the metric and their counts
// sum, which is exactly what a process hosting two charz services wants
// its /metrics to say.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric behaviour in the registry and its encoders.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value that may go up or down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil Counter is a no-op, so call sites need no instrumentation guard.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative; this is not
// checked on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value loads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 metric. The zero value is usable; a
// nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop; allocation-free).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value loads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the tail. Observe is a
// linear scan over the (small, fixed) bound slice plus three atomic ops —
// no locks, no allocation. A nil Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot loads the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DefDurationBuckets are the default request/fill-duration bounds, in
// seconds: half a millisecond to ten seconds, roughly logarithmic — wide
// enough for both a memcached-speed curve GET and a full Quick sweep.
var DefDurationBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metric is one registry slot.
type metric struct {
	name   string // full name including any baked-in labels
	family string // name up to the label block
	labels string // label block without braces ("" when unlabeled)
	help   string
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	funcs   []func() float64 // read-time addends (appended under the registry lock)
}

// value loads the metric's scalar value (counter/gauge only).
func (m *metric) value() float64 {
	var v float64
	switch m.kind {
	case KindCounter:
		v = float64(m.counter.Value())
	case KindGauge:
		v = m.gauge.Value()
	}
	for _, fn := range m.funcs {
		v += fn()
	}
	return v
}

// Registry holds the process's metrics. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use,
// and all lookup methods are nil-receiver-safe (returning nil metrics,
// which are themselves no-ops) so an uninstrumented stack threads a nil
// *Registry end to end at zero cost.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// splitName separates `family{labels}` into its parts.
func splitName(name string) (family, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			if name[len(name)-1] != '}' {
				panic(fmt.Sprintf("telemetry: malformed metric name %q", name))
			}
			return name[:i], name[i+1 : len(name)-1]
		}
	}
	return name, ""
}

// lookup returns the named metric, creating it with mk on first use. A
// name registered twice with different kinds is a programming error and
// panics — silently aliasing a counter and a gauge would corrupt both.
func (r *Registry) lookup(name, help string, kind Kind, mk func(m *metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, m.kind, kind))
		}
		return m
	}
	family, labels := splitName(name)
	m := &metric{name: name, family: family, labels: labels, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the named counter, creating it on first use. Get-or-
// create by full name: callers registering the same name share one
// counter, so multi-instance subsystems sum naturally.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending; copied) on first use. A second
// registration returns the existing histogram regardless of the bounds it
// asked for — bounds are fixed at birth.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, func(m *metric) {
		if len(buckets) == 0 {
			buckets = DefDurationBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
			}
		}
		m.hist = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Int64, len(buckets)+1),
		}
	}).hist
}

// CounterFunc registers a read-time counter: fn is called at snapshot and
// its value added to the named counter's total. This is how existing
// counter surfaces (charz.Stats, curvestore.ServerStats) are re-exported
// without touching their hot paths. Multiple funcs on one name sum.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, KindCounter, func(m *metric) { m.counter = &Counter{} })
	r.mu.Lock()
	m.funcs = append(m.funcs, fn)
	r.mu.Unlock()
}

// GaugeFunc registers a read-time gauge; like CounterFunc, values of
// multiple funcs on one name sum (the natural reading for e.g. in-flight
// gauges of several instances).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, KindGauge, func(m *metric) { m.gauge = &Gauge{} })
	r.mu.Lock()
	m.funcs = append(m.funcs, fn)
	r.mu.Unlock()
}

// snapshotMetrics copies the metric list sorted by (family, name) — the
// deterministic encoder order.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	out := append([]*metric(nil), r.ordered...)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].name < out[j].name
	})
	return out
}

// Snapshot flattens every metric to name → value: counters and gauges
// directly, histograms as <name>_count and <name>_sum. This is the form
// messperf embeds in BENCH_sim.json rows.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case KindHistogram:
			out[m.name+"_count"] = float64(m.hist.Count())
			out[m.name+"_sum"] = m.hist.Sum()
		default:
			out[m.name] = m.value()
		}
	}
	return out
}
