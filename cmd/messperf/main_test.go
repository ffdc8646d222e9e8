package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

var sink [][]byte

func allocs(n int64) *int64 { return &n }

// writeBaseline stores a report with the given rows as a baseline file.
func writeBaseline(t *testing.T, rows ...Result) string {
	t.Helper()
	data, err := json.Marshal(Report{Schema: Schema, Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantGate checks a gate's verdict: a pass when fail is empty, otherwise an
// error that names fail.
func wantGate(t *testing.T, name string, err error, fail string) {
	t.Helper()
	switch {
	case fail == "" && err != nil:
		t.Errorf("%s: gate failed: %v", name, err)
	case fail != "" && err == nil:
		t.Errorf("%s: gate passed, want a failure naming %q", name, fail)
	case fail != "" && !strings.Contains(err.Error(), fail):
		t.Errorf("%s: gate error %q does not name %q", name, err, fail)
	}
}

// TestGate pins the regression gate every speed claim rests on: which rows
// it compares, against which bound, and which it leaves alone.
func TestGate(t *testing.T) {
	base := writeBaseline(t,
		Result{Name: "kernel/schedule_fire", EventsPerSec: 100e6, AllocsPerOp: allocs(0)},
		Result{Name: "model/dram_reference", EventsPerSec: 5e6, AllocsPerOp: allocs(0)},
		Result{Name: "framework/gone", EventsPerSec: 1e6, AllocsPerOp: allocs(0)},
		Result{Name: "framework/hpcg_profile", EventsPerSec: 2e6, AllocsPerOp: allocs(1)},
	)
	for _, tc := range []struct {
		name  string
		fresh []Result
		fail  string // substring of the error; "" for a pass
	}{
		{"kernel drop under the bound",
			[]Result{{Name: "kernel/schedule_fire", EventsPerSec: 75e6, AllocsPerOp: allocs(0)}}, ""},
		{"kernel drop over the bound",
			[]Result{{Name: "kernel/schedule_fire", EventsPerSec: 65e6, AllocsPerOp: allocs(0)}}, "kernel/schedule_fire: 100000000 -> 65000000 events/s"},
		{"model rows are trajectory only",
			[]Result{{Name: "model/dram_reference", EventsPerSec: 1e6, AllocsPerOp: allocs(0)}}, ""},
		{"allocs/op rise",
			[]Result{{Name: "model/dram_reference", EventsPerSec: 5e6, AllocsPerOp: allocs(1)}}, "model/dram_reference: 0 -> 1 allocs/op"},
		{"framework rows are trajectory only for speed",
			[]Result{{Name: "framework/hpcg_profile", EventsPerSec: 0.5e6, AllocsPerOp: allocs(1)}}, ""},
		{"framework allocs/op rise",
			[]Result{{Name: "framework/hpcg_profile", EventsPerSec: 2e6, AllocsPerOp: allocs(2)}}, "framework/hpcg_profile: 1 -> 2 allocs/op"},
		{"fresh row missing from the baseline is ignored",
			[]Result{{Name: "kernel/new", EventsPerSec: 1, AllocsPerOp: allocs(9)}}, ""},
		// The baseline's model and framework/gone rows are absent from
		// this run, and an absent row is not a regression.
		{"baseline row missing from the fresh run is ignored",
			[]Result{{Name: "kernel/schedule_fire", EventsPerSec: 100e6, AllocsPerOp: allocs(0)}}, ""},
	} {
		wantGate(t, tc.name, gate(Report{Results: tc.fresh}, base, gateDrop), tc.fail)
	}
	// The previous-run gate is the tight one: 10%.
	for _, tc := range []struct {
		name string
		eps  float64
		fail string
	}{
		{"previous-run drop under the bound", 92e6, ""},
		{"previous-run drop over the bound", 88e6, "12% drop > 10% allowed"},
	} {
		fresh := Report{Results: []Result{{Name: "kernel/schedule_fire", EventsPerSec: tc.eps, AllocsPerOp: allocs(0)}}}
		wantGate(t, tc.name, gate(fresh, base, gatePrevDrop), tc.fail)
	}
	if err := gate(Report{}, filepath.Join(t.TempDir(), "absent.json"), gateDrop); err == nil {
		t.Error("gate passed against a baseline file that does not exist")
	}
}

// TestSampledGate pins the sampled-replay accuracy gate: each bound (5%
// divergence, 5× speedup) fails its own side of the limit, and a report
// with no sampled row fails instead of passing with nothing checked.
func TestSampledGate(t *testing.T) {
	row := func(div, speedup float64) Report {
		return Report{Results: []Result{
			{Name: "framework/fig6_replay"},
			{Name: "framework/fig6_replay_sampled", DivergencePct: div, SpeedupX: speedup},
		}}
	}
	for _, tc := range []struct {
		name string
		rep  Report
		fail string
	}{
		{"within both bounds", row(2.5, 8), ""},
		{"divergence at the bound", row(5, 8), ""},
		{"divergence over the bound", row(5.1, 8), "diverges 5.10% from the full replay (> 5.0% allowed)"},
		{"speedup at the bound", row(2.5, 5), ""},
		{"speedup under the bound", row(2.5, 4.9), "4.9× speedup (< 5.0× required)"},
		{"no sampled row", Report{Results: []Result{{Name: "framework/fig6_replay"}}}, "no framework/fig6_replay_sampled row"},
		{"empty report", Report{}, "no framework/fig6_replay_sampled row"},
	} {
		_, err := sampledGate(tc.rep)
		wantGate(t, tc.name, err, tc.fail)
	}
}

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

// TestHPCGProfileRowCountsTransactions pins what framework/hpcg_profile
// prices: one op per memory transaction the profiled application issued —
// what a plain run of the same application for the same time sends to
// memory — so removing engine events never reads as removing work.
func TestHPCGProfileRowCountsTransactions(t *testing.T) {
	spec := platform.Skylake()
	spec.Cores, spec.DRAM.Channels = 2, 1
	const dur = 40 * sim.Microsecond
	r := hpcgProfileRow(spec, core.NewSynthetic(core.SyntheticSpec{}), dur)

	app := workloads.NewPhasedApp(spec, workloads.HPCGPhases(), nil)
	app.Run(dur)
	c := app.Counting.Snapshot()
	if want := int(c.Reads + c.Writes); r.Ops != want || want == 0 {
		t.Fatalf("row counts %d ops, the application issued %d memory transactions", r.Ops, want)
	}
	if r.Name != "framework/hpcg_profile" || r.AllocsPerOp == nil || r.EventsPerSec <= 0 {
		t.Fatalf("row is not an op-counted framework/hpcg_profile row under the allocs gate: %+v", r)
	}
}
