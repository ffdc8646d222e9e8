package workloads

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

func miniSpec() platform.Spec {
	return platform.Spec{
		Name: "mini", Cores: 6, FreqGHz: 2.0,
		DRAM:              dram.DDR4(2666, 2, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     sim.FromNanoseconds(44),
		MSHRs:             12,
		WriteBufs:         16,
		UnloadedLatencyNs: 88,
	}
}

func TestStreamSuiteShape(t *testing.T) {
	spec := miniSpec()
	results, err := StreamSuite(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("STREAM suite returned %d results", len(results))
	}
	theor := spec.TheoreticalBandwidthGBs()
	for _, r := range results {
		if r.AppBWGBs <= 0 || r.MemBWGBs <= 0 {
			t.Fatalf("%s reported no bandwidth: %+v", r.Name, r)
		}
		// Application-level STREAM bandwidth stays below the theoretical
		// peak and below the controller-level (Mess) bandwidth on a
		// write-allocate machine (Sec. III).
		if r.AppBWGBs >= r.MemBWGBs {
			t.Errorf("%s: app BW %.1f not below mem BW %.1f under write-allocate", r.Name, r.AppBWGBs, r.MemBWGBs)
		}
		if r.AppBWGBs > theor {
			t.Errorf("%s: app BW %.1f exceeds theoretical %.1f", r.Name, r.AppBWGBs, theor)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %.2f", r.Name, r.IPC)
		}
	}
	// Copy moves 2 lines per step, Add/Triad 3: with the same array sizes,
	// Triad app bandwidth should not exceed Copy's by much, and all four
	// must be in one bandwidth class (paper: 53-61% of theoretical for
	// Skylake).
	copyBW, triadBW := results[0].AppBWGBs, results[3].AppBWGBs
	if triadBW > copyBW*1.6 || copyBW > triadBW*1.9 {
		t.Errorf("STREAM kernels in different bandwidth classes: copy %.1f vs triad %.1f", copyBW, triadBW)
	}
}

func TestWriteThroughMatchesAppBandwidth(t *testing.T) {
	// On a write-through platform (Graviton 3 style), STREAM's app
	// accounting matches the controller traffic (no RFO amplification).
	spec := miniSpec()
	spec.Policy = cache.WriteThrough
	r, err := Run(spec, cpu.StreamCopy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.MemBWGBs / r.AppBWGBs
	if ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("write-through mem/app bandwidth ratio = %.2f, want ≈1", ratio)
	}
}

// The latency benchmarks (LMbench, multichase) run on a single core, as they
// are run in practice, whatever core count the suite's options carry.
func TestLatencySuiteSingleCore(t *testing.T) {
	spec := miniSpec()
	results, err := runSuite(spec, Options{}, latencyJobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// Dependent chases: IPC = instr/step over latency cycles. For
		// LMbench: 2 instructions per ~88 ns × 2 GHz = 176 cycles → ≈0.011.
		if r.IPC <= 0 || r.IPC > 0.1 {
			t.Errorf("%s IPC = %.4f implausible for a memory-latency benchmark", r.Name, r.IPC)
		}
		if r.MemBWGBs > 2 {
			t.Errorf("%s bandwidth %.1f GB/s too high for a single dependent chase", r.Name, r.MemBWGBs)
		}
	}
}

// The suites run their kernels concurrently; what they return must be what
// six serial Run calls return, in Copy, Scale, Add, Triad, LMbench,
// multichase order, whatever the worker count.
func TestSuitesMatchSerialRuns(t *testing.T) {
	spec := miniSpec()
	opt := Options{Warmup: 5 * sim.Microsecond, Measure: 15 * sim.Microsecond}
	single := opt
	single.Cores = 1
	var want []Result
	for _, k := range []cpu.Kernel{cpu.StreamCopy, cpu.StreamScale, cpu.StreamAdd, cpu.StreamTriad, cpu.LMbench, cpu.Multichase} {
		o := opt
		if k.Dependent {
			o = single
		}
		r, err := Run(spec, k, o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		eval, err := EvalSuite(spec, opt)
		stream, serr := StreamSuite(spec, opt)
		runtime.GOMAXPROCS(prev)
		if err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		if !reflect.DeepEqual(eval, want) {
			t.Errorf("GOMAXPROCS=%d: EvalSuite = %+v, want %+v", procs, eval, want)
		}
		if !reflect.DeepEqual(stream, want[:4]) {
			t.Errorf("GOMAXPROCS=%d: StreamSuite = %+v, want %+v", procs, stream, want[:4])
		}
	}
}

// A failing kernel fails the suite with that kernel's error.
func TestSuiteReportsRunError(t *testing.T) {
	spec := miniSpec()
	_, err := runSuite(spec, Options{}, []suiteJob{{kernel: cpu.StreamCopy}, {kernel: cpu.Kernel{Name: "empty"}}})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("got %v, want the arrayless kernel's error", err)
	}
}

func TestLLCHitRateReducesTraffic(t *testing.T) {
	spec := miniSpec()
	hot, err := Run(spec, cpu.StreamTriad, Options{LLCHitRate: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(spec, cpu.StreamTriad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hot.MemBWGBs > cold.MemBWGBs*0.5 {
		t.Fatalf("95%% LLC hits left %.1f GB/s of %.1f — locality knob ineffective", hot.MemBWGBs, cold.MemBWGBs)
	}
	if hot.IPC <= cold.IPC {
		t.Fatalf("cache hits did not raise IPC: %.2f vs %.2f", hot.IPC, cold.IPC)
	}
}

func TestSpecSuiteOrdering(t *testing.T) {
	suite := SpecSuite()
	if len(suite) < 25 {
		t.Fatalf("SPEC-like suite has %d entries", len(suite))
	}
	names := map[string]bool{}
	for _, b := range suite {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
		if b.LLCHitRate < 0 || b.LLCHitRate > 1 {
			t.Fatalf("%s hit rate %v", b.Name, b.LLCHitRate)
		}
	}
	for _, want := range []string{"perlbench", "lbm", "namd", "libquantum", "mcf"} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
}

func TestPhasedAppTimeline(t *testing.T) {
	spec := miniSpec()
	app := NewPhasedApp(spec, HPCGPhases(), nil)
	app.Run(900 * sim.Microsecond)
	events := app.Events()
	if len(events) < 6 {
		t.Fatalf("phased app recorded %d events", len(events))
	}
	sawMPI, sawCompute := false, false
	for i, e := range events {
		if e.End <= e.Start {
			t.Fatalf("event %d has non-positive duration", i)
		}
		if i > 0 && e.Start != events[i-1].End {
			t.Fatalf("timeline gap between %d and %d", i-1, i)
		}
		if e.MPI {
			sawMPI = true
		} else {
			sawCompute = true
		}
	}
	if !sawMPI || !sawCompute {
		t.Fatal("timeline missing MPI or compute phases")
	}
	if app.Counting.Snapshot().TotalBytes() == 0 {
		t.Fatal("phased app generated no memory traffic")
	}
}

// Run refuses, with an error rather than the core's panic, a kernel with no
// arrays and a dependent kernel that is not one load and no store.
func TestRunRejectsArraylessKernel(t *testing.T) {
	for _, k := range []cpu.Kernel{
		{Name: "empty"},
		{Name: "dep-rmw", Loads: 1, Stores: 1, ElemsPerLine: 1, Dependent: true},
		{Name: "dep-pair", Loads: 2, ElemsPerLine: 1, Dependent: true},
	} {
		if _, err := Run(miniSpec(), k, Options{}); err == nil || !strings.Contains(err.Error(), k.Name) {
			t.Errorf("kernel %s: got %v, want its rejection", k.Name, err)
		}
	}
}

func TestIPCErrors(t *testing.T) {
	ref := []Result{{IPC: 2}, {IPC: 0.5}, {IPC: 1}}
	got := []Result{{IPC: 1}, {IPC: 0.75}, {IPC: 1}}
	per, mean := IPCErrors(ref, got)
	if want := []float64{0.5, 0.5, 0}; !slices.Equal(per, want) {
		t.Errorf("per-benchmark errors %v, want %v: absolute, relative to the reference", per, want)
	}
	if want := 1.0 / 3; mean != want {
		t.Errorf("mean %v, want %v", mean, want)
	}
	// A model that reproduces the reference scores zero everywhere.
	if per, mean := IPCErrors(ref, ref); mean != 0 || slices.Max(per) != 0 {
		t.Errorf("reference against itself: %v, mean %v", per, mean)
	}
}
