// Package workloads implements the benchmark programs of the paper's
// evaluation as instruction-mix kernels on the simulated cores: the four
// STREAM kernels, LMbench lat_mem_rd, Google multichase, an HPCG
// proxy with its MPI phase structure, and a 26-entry SPEC-CPU2006-like
// synthetic suite. Workloads run multiprogrammed (one copy per core, as the
// paper runs them) over any memory backend, and report IPC, application-
// level bandwidth and controller-level bandwidth. A single Run is one
// simulation on one goroutine; the suites run their kernels concurrently.
package workloads

import (
	"context"
	"fmt"
	"math"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// arrayBytes sizes each kernel array: it wraps, and exceeds the LLC so the
// kernels stream.
const arrayBytes = 32 << 20

// Options configure a workload run.
type Options struct {
	// Cores is the number of benchmark copies; 0 runs one per platform
	// core (the paper's multiprogrammed setup).
	Cores int
	// Warmup and Measure are the simulated window durations.
	Warmup  sim.Time
	Measure sim.Time
	// Backend overrides the memory model; nil uses the platform's
	// detailed DRAM system.
	Backend mem.BackendFactory
	// LLCHitRate injects on-chip locality (used by the SPEC-like suite to
	// modulate memory intensity).
	LLCHitRate float64
}

func (o *Options) withDefaults(spec platform.Spec) Options {
	out := *o
	if out.Cores == 0 {
		out.Cores = spec.Cores
	}
	if out.Warmup == 0 {
		out.Warmup = 10 * sim.Microsecond
	}
	if out.Measure == 0 {
		out.Measure = 40 * sim.Microsecond
	}
	return out
}

// Result is one workload execution.
type Result struct {
	Name string
	// IPC is the mean per-core instructions per cycle.
	IPC float64
	// AppBWGBs is the application-accounted bandwidth summed over cores
	// (the STREAM accounting: no RFO or writeback amplification).
	AppBWGBs float64
	// MemBWGBs is the controller-level bandwidth from the counters (the
	// Mess accounting).
	MemBWGBs float64
	// ReadRatio is the controller-level read share.
	ReadRatio float64
	// Steps is the total number of completed line-steps.
	Steps uint64
}

// Run executes the kernel multiprogrammed on the platform.
func Run(spec platform.Spec, k cpu.Kernel, opt Options) (Result, error) {
	o := opt.withDefaults(spec)
	eng := sim.New()

	var backend mem.Backend
	if o.Backend != nil {
		backend = o.Backend(eng)
	} else {
		backend = dram.New(eng, spec.DRAM)
	}
	counting := mem.NewCounting(backend)
	ccfg := spec.CacheConfig()
	ccfg.LLCHitRate = o.LLCHitRate
	ccfg.LLCHitLatency = spec.OnChipLatency / 2
	hier := cache.New(eng, ccfg, counting)

	cores := make([]*cpu.KernelCore, 0, o.Cores)
	narr := k.Loads + k.Stores
	if narr == 0 {
		return Result{}, fmt.Errorf("workloads: kernel %s touches no arrays", k.Name)
	}
	if k.Dependent && (k.Loads != 1 || k.Stores != 0) {
		return Result{}, fmt.Errorf("workloads: dependent kernel %s must be one load and no store", k.Name)
	}
	for c := 0; c < o.Cores; c++ {
		bases := make([]uint64, narr)
		for a := 0; a < narr; a++ {
			// Give every (core, array) pair a disjoint region, staggered
			// by a bank-sized offset so streams spread across banks.
			bases[a] = uint64(1)<<33 + uint64(c)*(1<<29+16<<10) + uint64(a)*(1<<27+32<<10)
		}
		core := cpu.NewKernelCore(eng, hier.Port(c), k, cpu.CoreConfig{
			CycleTime:  spec.CycleTime(),
			ArrayBases: bases,
			ArrayBytes: arrayBytes,
			Seed:       uint64(c)*0x9e3779b97f4a7c15 + 0xdeadbeef,
		})
		core.Start()
		cores = append(cores, core)
	}

	eng.RunUntil(o.Warmup)
	c0 := counting.Snapshot()
	t0 := eng.Now()
	for _, c := range cores {
		c.ResetStats()
	}
	eng.RunUntil(o.Warmup + o.Measure)
	c1 := counting.Snapshot()
	t1 := eng.Now()

	res := Result{Name: k.Name}
	delta := c1.Sub(c0)
	res.MemBWGBs = delta.BandwidthGBs(t1 - t0)
	res.ReadRatio = delta.ReadRatio()
	var ipcSum float64
	for _, c := range cores {
		ipcSum += c.IPC()
		res.AppBWGBs += c.AppBandwidthGBs()
		res.Steps += c.Steps()
	}
	if res.Steps == 0 {
		return Result{}, fmt.Errorf("workloads: %s on %s made no progress", k.Name, spec.Name)
	}
	res.IPC = ipcSum / float64(len(cores))
	for _, c := range cores {
		c.Stop()
	}
	return res, nil
}

// suiteJob is one kernel of a suite; singleCore runs it on one core, as the
// latency benchmarks are run in practice, instead of one copy per core.
type suiteJob struct {
	kernel     cpu.Kernel
	singleCore bool
}

var (
	streamJobs  = []suiteJob{{kernel: cpu.StreamCopy}, {kernel: cpu.StreamScale}, {kernel: cpu.StreamAdd}, {kernel: cpu.StreamTriad}}
	latencyJobs = []suiteJob{{cpu.LMbench, true}, {cpu.Multichase, true}}
	evalJobs    = append(append([]suiteJob(nil), streamJobs...), latencyJobs...)
)

// runSuite runs the jobs side by side on up to GOMAXPROCS workers — every
// Run builds its own engine and shares nothing — and returns the results in
// job order. This is the one fan-out level of its call tree: callers loop
// over suites serially, so at most GOMAXPROCS simulations are ever live.
func runSuite(spec platform.Spec, opt Options, jobs []suiteJob) ([]Result, error) {
	out := make([]Result, len(jobs))
	err := par.Do(context.TODO(), len(jobs), func(i int) error {
		o := opt
		if jobs[i].singleCore {
			o.Cores = 1
		}
		var err error
		out[i], err = Run(spec, jobs[i].kernel, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamSuite runs the four STREAM kernels and returns their results in
// Copy, Scale, Add, Triad order.
func StreamSuite(spec platform.Spec, opt Options) ([]Result, error) {
	return runSuite(spec, opt, streamJobs)
}

// EvalSuite returns the six benchmarks of the paper's IPC-error experiments
// (Figs. 11 and 13): the four STREAM kernels multiprogrammed plus the two
// latency benchmarks single-core.
func EvalSuite(spec platform.Spec, opt Options) ([]Result, error) {
	return runSuite(spec, opt, evalJobs)
}

// IPCErrors scores a model's run of a suite against the reference run of
// the same suite: the absolute relative IPC error of each benchmark, in
// suite order, and their mean — the quantity of Figs. 11 and 13.
func IPCErrors(ref, got []Result) (perBench []float64, mean float64) {
	perBench = make([]float64, len(ref))
	for i := range ref {
		perBench[i] = math.Abs(got[i].IPC-ref[i].IPC) / ref[i].IPC
		mean += perBench[i]
	}
	return perBench, mean / float64(len(ref))
}
