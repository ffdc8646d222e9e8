package main

import (
	"math"
	"testing"
)

var sink [][]byte

// TestIORowArithmetic pins what the io/ rows report: one op per record
// (ns_per_op and events_per_sec are per record, allocs_per_op is mallocs
// over records, truncated — the figure the allocs gate compares) and
// mb_per_s as decimal megabytes of text over the row's own wall-clock.
func TestIORowArithmetic(t *testing.T) {
	r := withMBPerSec(Result{WallMs: 50, Ops: 400_000}, 10_000_000)
	if r.MBPerSec != 200 {
		t.Errorf("10 MB in 50 ms: mb_per_s = %v, want 200", r.MBPerSec)
	}
	if r := withMBPerSec(Result{}, 1000); r.MBPerSec != 0 {
		t.Errorf("a row without wall-clock got mb_per_s = %v", r.MBPerSec)
	}

	const records, buffers = 1000, 40
	r = measure("io/test", records, func() {
		for i := 0; i < buffers; i++ {
			sink = append(sink, make([]byte, 4096))
		}
	})
	if r.Ops != records || r.AllocsPerOp == nil {
		t.Fatalf("row is not op-counted: %+v", r)
	}
	if r.Mallocs < buffers || r.AllocBytes < buffers*4096 {
		t.Errorf("mallocs = %d, alloc_bytes = %d; the run made %d allocations of 4096 bytes", r.Mallocs, r.AllocBytes, buffers)
	}
	if want := int64(r.Mallocs) / records; *r.AllocsPerOp != want || want != 0 {
		t.Errorf("allocs_per_op = %d, want mallocs/records = %d (0: a few buffers per call, not per record)", *r.AllocsPerOp, want)
	}
	if wall := r.NsPerOp * records / 1e6; math.Abs(wall-r.WallMs) > 1e-6*r.WallMs {
		t.Errorf("ns_per_op × records = %v ms, wall_ms = %v", wall, r.WallMs)
	}
	if per := r.EventsPerSec * r.NsPerOp; math.Abs(per-1e9) > 1e3 {
		t.Errorf("events_per_sec × ns_per_op = %v, want 1e9", per)
	}
}
