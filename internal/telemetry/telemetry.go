// Package telemetry is the observability layer of the stack: a registry
// of counters, structured logging over log/slog, and a tracer exporting
// Chrome trace_event JSON.
//
// The Mess methodology is a profiling instrument, and an instrument whose
// own runtime is opaque cannot be trusted. One bundle, Set{Metrics,
// Tracer, Log}, is threaded through the stack by value, never as a
// global: subsystems count into one Registry, whose Snapshot is the flat
// name → value map messperf and the benchmark harness embed, and record
// spans into one Tracer, so a performance engineer opens a run in Perfetto
// instead of reading ad-hoc dumps.
//
// # Registry
//
// The registry holds counters and nothing else. Counter is get-or-create
// by full series name, with labels baked into the name
// (`mess_curve_client_requests_total{op="load"}`), so the hot path never
// formats labels; two subsystems registering one name share the counter
// and their counts sum. Add and Inc are one atomic op and never allocate,
// so per-request counting is legal on hot paths; registration takes a
// lock, so create counters at construction time. Snapshot loads every
// counter when asked; nothing is aggregated on the write path.
//
// A number with a home elsewhere is not copied into the registry: the
// charz service's cache outcomes live in charz.Stats, a fill's or a
// sweep's duration lives in its span, and a rate is a span's count over
// its duration. The registry holds no gauge, histogram or read-time
// callback — a callback would also keep whatever it captures reachable
// for as long as the registry lives.
//
// # Nil safety
//
// Every accessor is nil-safe: Set.Registry, Set.Trace and Set.Logger work
// on a nil *Set and return inert values whose methods also accept nil
// receivers (a nil Registry hands out nil Counters, which count nothing).
// An uninstrumented path pays one branch, and wiring code never guards.
//
// # Spans
//
// Tracks are (process, thread) pairs: ("charz","fill") fill spans named
// "characterize <spec>", ("bench","sweep"/"point") sweep and per-point
// spans, ("trace","sampled-replay") fingerprint, cluster, replay and
// reconstruct phases, ("messexp","experiments") the experiment lifecycle.
// Export is deterministic: events sort by (pid, tid, ts, seq) and the
// writer hand-builds the JSON, so identical runs produce identical files
// (golden-tested with an injected clock); a 1M-event cap (SetMaxEvents)
// drops the tail and reports droppedEvents rather than growing unbounded.
//
// # How a subsystem joins
//
// Accept a *Set in the component's config (nil is fine), create counters
// and tracks at construction, and meter at the granularity results can
// afford — per point, window or request, never per event. sim imports no
// telemetry: bench records the per-point spans and reads Engine.Steps
// into mess_sim_events_total. Tracer.Span takes caller timestamps, so a
// sim-time track (a second time domain, on a process of its own) can join
// a trace. The bundle rides in bench.Options.Telemetry, which Normalized
// clears: telemetry never reaches a fingerprint or changes a result, and
// exp.TestTelemetryEnabledDeterminism holds that byte for byte.
//
// # Surfaces
//
// -v on every tool but messtrace (cli.TelemetryFlags), messexp -trace-out,
// the facade's DefaultCharacterizationService().Stats(), and messperf's
// telemetry block. Only the standard library is imported, so every
// internal package may import this one without cycles.
package telemetry

import (
	"sync"
	"sync/atomic"
)

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

// Registry holds the process's counters. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use and
// nil-receiver-safe, so an uninstrumented stack threads a nil *Registry
// end to end at zero cost.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Counter{}}
}

// Counter returns the named counter, creating it on first use. Callers
// registering the same name share one counter, so multi-instance
// subsystems sum naturally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.byName[name]
	if !ok {
		c = &Counter{}
		r.byName[name] = c
	}
	return c
}

// Snapshot loads every counter into a name → value map. This is the form
// messperf embeds in BENCH_sim.json rows.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.byName))
	for name, c := range r.byName {
		out[name] = float64(c.Value())
	}
	return out
}
