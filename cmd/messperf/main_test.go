package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

var sink [][]byte

func allocs(n int64) *int64 { return &n }

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

// fakeChildLog names the environment variable that turns the test binary
// into a stand-in messperf child (see TestMain).
const fakeChildLog = "MESSPERF_TEST_FAKE_CHILD_LOG"

// TestMain lets the test binary stand in for a messperf child: with
// fakeChildLog set, it appends the name it was run under to that log and
// writes to its -out a report whose one row costs 100 + the number of
// runs before it, instead of running the tests.
func TestMain(m *testing.M) {
	log := os.Getenv(fakeChildLog)
	if log == "" {
		os.Exit(m.Run())
	}
	before, _ := os.ReadFile(log)
	n := strings.Count(string(before), "\n")
	side := filepath.Base(os.Args[0])
	rep := Report{Schema: side, Results: []Result{{Name: "kernel/schedule_fire", Ops: 1, NsPerOp: float64(100 + n), AllocsPerOp: allocs(0)}}}
	data, err := json.Marshal(rep)
	if err == nil && len(os.Args) == 3 && os.Args[1] == "-out" {
		err = os.WriteFile(os.Args[2], data, 0o644)
	}
	if err == nil {
		err = os.WriteFile(log, append(before, side+"\n"...), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// reports returns pairs reports of the given rows, with f applied to the
// rows of report i.
func reports(rows []Result, f func(i int, r *Result)) []Report {
	reps := make([]Report, pairs)
	for i := range reps {
		reps[i].Results = slices.Clone(rows)
		for j := range reps[i].Results {
			f(i, &reps[i].Results[j])
		}
	}
	return reps
}

// TestGate pins the paired regression gate every speed claim rests on:
// every row is held to the parent's runs by its median cost ratio, a
// minority of disturbed pairs does not fail it, allocs/op may not rise on
// any row, and a row only one side has is left alone.
func TestGate(t *testing.T) {
	rows := []Result{
		{Name: "kernel/schedule_fire", Ops: 1000, NsPerOp: 50, AllocsPerOp: allocs(0)},
		{Name: "model/dram_reference", Ops: 1000, NsPerOp: 400, AllocsPerOp: allocs(0)},
		{Name: "framework/hpcg_profile", Ops: 1000, NsPerOp: 600, AllocsPerOp: allocs(1)},
		{Name: "framework/fig2_point", WallMs: 12},
		{Name: "io/trace_save", Ops: 1000, NsPerOp: 100, AllocsPerOp: allocs(0)},
	}
	parent := reports(rows, func(int, *Result) {})
	// slower scales the named row's cost by x in the pairs where pick holds.
	slower := func(name string, x float64, pick func(i int) bool) []Report {
		return reports(rows, func(i int, r *Result) {
			if r.Name == name && pick(i) {
				r.NsPerOp *= x
				r.WallMs *= x
			}
		})
	}
	every := func(int) bool { return true }
	for _, tc := range []struct {
		name   string
		change []Report
		fail   string // substring of the error; "" for a pass
	}{
		{"A/A", reports(rows, func(int, *Result) {}), ""},
		{"2× slower in every pair", slower("model/dram_reference", 2, every), "model/dram_reference: 2.00× the parent's cost"},
		{"a minority of slow pairs", slower("kernel/schedule_fire", 3, func(i int) bool { return i < pairs/2 }), ""},
		{"a majority of slow pairs", slower("kernel/schedule_fire", 3, func(i int) bool { return i <= pairs/2 }), "kernel/schedule_fire: 3.00×"},
		{"just under the bound", slower("io/trace_save", 0.99*maxSlowdown, every), ""},
		{"just over the bound", slower("io/trace_save", 1.01*maxSlowdown, every), "io/trace_save"},
		{"framework rows are gated on speed", slower("framework/hpcg_profile", 1.5, every), "framework/hpcg_profile"},
		{"wall-only rows are gated on wall_ms", slower("framework/fig2_point", 1.5, every), "framework/fig2_point"},
		{"kernel rows are gated on speed", slower("kernel/schedule_fire", 1.5, every), "kernel/schedule_fire"},
	} {
		_, err := gate(tc.change, parent)
		wantGate(t, tc.name, err, tc.fail)
	}
	for _, row := range rows {
		if row.AllocsPerOp == nil {
			continue
		}
		change := reports(rows, func(_ int, r *Result) {
			if r.Name == row.Name {
				r.AllocsPerOp = allocs(*r.AllocsPerOp + 1)
			}
		})
		_, err := gate(change, parent)
		wantGate(t, "allocs/op rise", err, fmt.Sprintf("%s: %d -> %d allocs/op", row.Name, *row.AllocsPerOp, *row.AllocsPerOp+1))
	}

	// A row the parent lacks is new: reported, not gated. A row the change
	// lacks is gone: not a regression.
	change := reports(append(slices.Clone(rows[1:]), Result{Name: "kernel/new", Ops: 1, NsPerOp: 1e9, AllocsPerOp: allocs(9)}), func(int, *Result) {})
	med, err := gate(change, parent)
	wantGate(t, "row present on one side only", err, "")
	if len(med.Results) != len(rows) || med.Results[len(rows)-1].Name != "kernel/new" {
		t.Errorf("medians hold %d rows ending %q, want the change's %d ending kernel/new", len(med.Results), med.Results[len(med.Results)-1].Name, len(rows))
	}
}

// TestPairedGateAlternates runs the gate on stand-in children (the test
// binary under two names, see TestMain): the sides take turns going first,
// and -out receives the change's per-row medians, not the parent's.
func TestPairedGateAlternates(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, side := range []string{"change", "parent"} {
		if err := os.Symlink(self, filepath.Join(dir, side)); err != nil {
			t.Fatal(err)
		}
	}
	log := filepath.Join(dir, "order.log")
	t.Setenv(fakeChildLog, log)
	out := filepath.Join(dir, "medians.json")
	if err := pairedGate(filepath.Join(dir, "change"), filepath.Join(dir, "parent"), out); err != nil {
		t.Fatal(err)
	}

	order, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("parent\nchange\nchange\nparent\n", pairs/2+1)[:len("parent\nchange\n")*pairs]
	if string(order) != want {
		t.Errorf("children ran in the order\n%swant\n%s", order, want)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var med Report
	if err := json.Unmarshal(data, &med); err != nil {
		t.Fatal(err)
	}
	// Run k cost 100+k, so the change's runs cost 101, 102, 105, 106, …
	// and the parent's 100, 103, 104, 107, …: their medians differ by one.
	var costs []float64
	for k, side := range strings.Fields(want) {
		if side == "change" {
			costs = append(costs, float64(100+k))
		}
	}
	if m := median(costs); med.Schema != "change" || len(med.Results) != 1 || med.Results[0].NsPerOp != m {
		t.Errorf("-out holds %+v, want the change's median row, %v ns/op", med, m)
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
