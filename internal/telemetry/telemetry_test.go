package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mess_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("mess_test_gauge", "test gauge")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1", got)
	}
	h := r.Histogram("mess_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 55.55; math.Abs(got-want) > 1e-9 {
		t.Fatalf("hist sum = %v, want %v", got, want)
	}
	if got := h.snapshot(); got[0] != 1 || got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("hist buckets = %v, want one sample each", got)
	}
}

func TestGetOrCreateSharesMetrics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mess_shared_total", "shared")
	b := r.Counter("mess_shared_total", "shared")
	if a != b {
		t.Fatalf("same name produced distinct counters")
	}
	a.Add(3)
	b.Add(4)
	if got := r.Snapshot()["mess_shared_total"]; got != 7 {
		t.Fatalf("shared counter = %v, want 7", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mess_kind_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("mess_kind_total", "")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	var tr *Tracer
	tr.Span(Track{}, "x", 0, 1)
	tr.Begin(Track{}, "x").End()
	if tr.Events() != 0 || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Fatalf("nil tracer must be inert")
	}
	var s *Set
	if s.Registry() != nil || s.Trace() != nil || s.Logger() == nil {
		t.Fatalf("nil Set accessors misbehaved")
	}
	s.Logger().Info("discarded")
}

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the data-race proof, and
// the exact final counts prove no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mess_conc_total", "")
	g := r.Gauge("mess_conc_gauge", "")
	h := r.Histogram("mess_conc_seconds", "", []float64{1, 2, 3})
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	// i%5 over [0,5) sums to 10 per 5 ops.
	if want := float64(total / 5 * 10); h.Sum() != want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestHotPathZeroAlloc is the contract the instrumented DRAM/model hot
// loops rely on: recording a metric never allocates, live or nil.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mess_alloc_total", "")
	g := r.Gauge("mess_alloc_gauge", "")
	h := r.Histogram("mess_alloc_seconds", "", nil)
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(3.14) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.007) }},
		{"nil Counter.Add", func() { nilC.Add(1) }},
		{"nil Gauge.Set", func() { nilG.Set(1) }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`mess_charz_hits_total{tier="disk"}`, "charz cache hits by tier").Add(3)
	r.Counter(`mess_charz_hits_total{tier="memory"}`, "charz cache hits by tier").Add(9)
	r.Gauge("mess_inflight_requests", "in-flight requests").Set(2)
	h := r.Histogram("mess_req_seconds", "request duration", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	r.CounterFunc("mess_func_total", "read-time counter", func() float64 { return 11 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP mess_charz_hits_total charz cache hits by tier
# TYPE mess_charz_hits_total counter
mess_charz_hits_total{tier="disk"} 3
mess_charz_hits_total{tier="memory"} 9
# HELP mess_func_total read-time counter
# TYPE mess_func_total counter
mess_func_total 11
# HELP mess_inflight_requests in-flight requests
# TYPE mess_inflight_requests gauge
mess_inflight_requests 2
# HELP mess_req_seconds request duration
# TYPE mess_req_seconds histogram
mess_req_seconds_bucket{le="0.01"} 1
mess_req_seconds_bucket{le="0.1"} 2
mess_req_seconds_bucket{le="+Inf"} 3
mess_req_seconds_sum 7.055
mess_req_seconds_count 3
`
	if got != want {
		t.Fatalf("prometheus output mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Gauge("a", "").Set(1.25)
	h := r.Histogram("c_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	snap := r.Snapshot()
	if snap["a"] != 1.25 || snap["b_total"] != 2 || snap["c_seconds_count"] != 2 || snap["c_seconds_sum"] != 3.5 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:               "0",
		3:               "3",
		-7:              "-7",
		1.25:            "1.25",
		0.0005:          "0.0005",
		math.Inf(1):     "+Inf",
		1e15:            "1e+15",
		123456789012345: "123456789012345",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
