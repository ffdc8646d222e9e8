package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mess_test_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGetOrCreateSharesMetrics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mess_shared_total")
	b := r.Counter("mess_shared_total")
	if a != b {
		t.Fatalf("same name produced distinct counters")
	}
	a.Add(3)
	b.Add(4)
	if got := r.Snapshot()["mess_shared_total"]; got != 7 {
		t.Fatalf("shared counter = %v, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
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

// TestConcurrentUpdates hammers one counter from many goroutines, through
// handles fetched concurrently by name; run under -race this is the
// data-race proof, and the exact final count proves no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("mess_conc_total")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("mess_conc_total").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
}

// TestHotPathZeroAlloc is the contract the instrumented DRAM/model hot
// loops rely on: counting never allocates, live or nil.
func TestHotPathZeroAlloc(t *testing.T) {
	c := NewRegistry().Counter("mess_alloc_total")
	var nilC *Counter
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"nil Counter.Add", func() { nilC.Add(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter(`a_total{op="load"}`).Inc()
	r.Counter("c_total")

	snap := r.Snapshot()
	want := map[string]float64{"b_total": 2, `a_total{op="load"}`: 1, "c_total": 0}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
	for name, v := range want {
		if got, ok := snap[name]; !ok || got != v {
			t.Fatalf("snapshot = %v, want %v", snap, want)
		}
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:               "0",
		3:               "3",
		-7:              "-7",
		1.25:            "1.25",
		0.0005:          "0.0005",
		math.Inf(1):     `"+Inf"`,
		math.Inf(-1):    `"-Inf"`,
		1e15:            "1e+15",
		123456789012345: "123456789012345",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
