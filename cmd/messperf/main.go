// Command messperf runs the repository's hot-path performance suite and
// writes the results as JSON (BENCH_sim.json by default). With -gate it
// holds them to the parent commit's messperf, run on the same host.
//
// It measures four layers, using the canonical workloads of
// internal/perfload (shared with the root -bench=Kernel benchmarks):
//
//   - kernel/: schedule/fire throughput of the event kernel on the wheel
//     and overflow paths, and of a pacing component that schedules its one
//     prebuilt wake callback again at the end of each fire;
//   - model/: completions/sec of the detailed DRAM model under three
//     traffic regimes, of the CXL expander and of the Mess analytical
//     simulator, each under a closed loop (the zero-allocation request
//     lifecycle reads as allocs_per_op 0 on these rows);
//   - framework/: a Quick-scale characterization and the Quick fig2
//     experiment on fresh services, priced per simulated event; one fully
//     loaded sweep point on the Quick-scaled Skylake and on the 8-channel
//     Graviton 3 model; the HPCG proxy profile, priced per memory
//     transaction; one fig6-class trace replayed in full, priced per
//     record, and through the phase-clustered sampler;
//   - io/: the same trace saved to and read from the release text format
//     in memory, one op per record, with mb_per_s beside the usual columns.
//
// Every measurement is taken bestOf (3) times and the best sample (highest
// events/sec; lowest wall-clock for wall-only rows) is recorded. Every run
// holds the sampled replay to absolute bounds (sampledGate): its estimates
// within maxDivergencePct of the full replay of the same trace, while
// simulating at most 1/minSpeedupX of the records. Both numbers are
// deterministic properties of the build, not of the host.
//
// With -gate, messperf measures nothing itself. It runs its own binary and
// the parent commit's as child processes with -out only, pairs times each,
// alternating which side goes first, and compares them pair by pair (gate).
// A row fails when the median over pairs of its change/parent cost ratio
// (ns_per_op, or wall_ms for wall-only rows) exceeds maxSlowdown, or when
// its median allocs_per_op rose above the parent's. Every row is gated; a
// row either side lacks is skipped. -out then receives the change's
// per-row medians. Both sides run on one host in one job, so the gate
// compares code, not machines.
//
// BENCH_sim.json at the repository root is the trajectory record, written
// by a plain run; no gate reads it.
//
// With -cpuprofile/-memprofile, a plain run writes pprof profiles covering
// exactly the measured region (every benchmark, none of the report
// machinery) — the way to hunt the hot spot of a row the gate failed.
//
// The run's shape (event counts, samples, pairs, bounds) is constants, so
// every run is comparable with every other; the only flags are paths.
//
// Usage:
//
//	messperf [-out BENCH_sim.json] [-gate messperf.parent]
//	         [-cpuprofile cpu.out] [-memprofile mem.out] [-v]
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"runtime/pprof"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/perfload"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
	"github.com/mess-sim/mess/internal/trace"
	"github.com/mess-sim/mess/internal/workloads"
)

// Schema identifies the BENCH_sim.json format; CHANGES.md records what
// each version changed. The telemetry block's series are not part of it.
const Schema = "mess-perf/v12"

// The run's shape and bounds.
const (
	// kernelEvents is the events per kernel micro-measurement, modelEvents
	// the requests per model measurement. A baseline taken at other counts
	// is not comparable: short runs are cold-start-dominated.
	kernelEvents = 4_000_000
	modelEvents  = 300_000
	// bestOf is how many times each measurement is taken; the best sample
	// is recorded.
	bestOf = 3
	// pairs is how many runs -gate takes of each side; odd, so each
	// median is one pair's. maxSlowdown is the largest median change/parent
	// cost ratio a row may show. Both are set from same-binary (A/A) runs
	// on a shared 2-core host: one pair's ratio spanned 0.56–3.06, and the
	// worst row's median over 9 pairs passed 1.40 in 1% of resampled gates.
	pairs       = 9
	maxSlowdown = 1.45
	// maxDivergencePct and minSpeedupX bound the sampled replay: its
	// estimates within 5% of the full replay of the same trace, while
	// simulating at most a fifth of the records.
	maxDivergencePct = 5
	minSpeedupX      = 5
)

// Result is one measured quantity of the suite. AllocsPerOp follows the
// `go test -benchmem` convention (total mallocs / ops, truncated): the
// zero-allocation hot-path claim reads as a literal 0, while Mallocs keeps
// the raw count so sub-integer drift (pool warmup, active-run growth)
// stays visible in the trajectory, next to the bytes those allocations took.
type Result struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	AllocsPerOp  *int64  `json:"allocs_per_op,omitempty"` // nil for wall-clock-only rows
	Mallocs      uint64  `json:"mallocs,omitempty"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	WallMs       float64 `json:"wall_ms"`
	Ops          int     `json:"ops"`
	// DivergencePct and SpeedupX are set on the sampled-replay row only:
	// the reconstruction's worst-case bandwidth/latency deviation from the
	// full replay of the same trace, and the record-count reduction the
	// sampling achieved. Both are deterministic per trace (unlike the
	// wall-clock columns), so they can be gated as hard bounds.
	DivergencePct float64 `json:"divergence_pct,omitempty"`
	SpeedupX      float64 `json:"speedup_x,omitempty"`
	// MBPerSec is set on the io/ rows: bytes of trace text written or
	// parsed per second of wall-clock (decimal megabytes).
	MBPerSec float64 `json:"mb_per_s,omitempty"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Schema     string   `json:"schema"`
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	BestOf     int      `json:"best_of,omitempty"`
	Results    []Result `json:"results"`
	// Telemetry is the run's counter registry, flattened: the work
	// counters mess_bench_points_total and mess_sim_events_total. They
	// contextualize the wall-clock rows: a row that slowed down while its
	// work counters held steady regressed, one whose counters moved
	// measured different work.
	// Volatile by construction, so never gated.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// better reports whether a is a better sample of the same measurement
// than b: more events/sec for op-counted rows, less wall-clock for
// wall-only ones. Taking bestOf samples, "best" is the right statistic — the
// minimum of a latency-like measurement estimates the noise floor, where
// the mean smears scheduler interference into the trajectory.
func better(a, b Result) bool {
	if a.Ops > 0 && b.Ops > 0 {
		return a.EventsPerSec > b.EventsPerSec
	}
	return a.WallMs < b.WallMs
}

func measure(name string, ops int, run func()) Result {
	return measureCounted(name, func() int { return ops }, run)
}

// measureCounted is measure for a run whose operation count is only known
// once it is over: ops is called after run returns.
func measureCounted(name string, ops func() int, run func()) Result {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	run()
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	r := Result{Name: name, WallMs: float64(el.Nanoseconds()) / 1e6, Ops: ops()}
	if r.Ops > 0 {
		r.NsPerOp = float64(el.Nanoseconds()) / float64(r.Ops)
		r.EventsPerSec = float64(r.Ops) / el.Seconds()
		// Mallocs and TotalAlloc are cumulative (GC never decreases
		// them), so the deltas are exactly what the run allocated.
		r.Mallocs = m1.Mallocs - m0.Mallocs
		r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		allocs := int64(r.Mallocs) / int64(r.Ops)
		r.AllocsPerOp = &allocs
	}
	return r
}

// withMBPerSec adds the byte rate to a measured row whose run moved the
// given number of bytes.
func withMBPerSec(r Result, bytes int) Result {
	if r.WallMs > 0 {
		r.MBPerSec = float64(bytes) / 1e6 / (r.WallMs / 1e3)
	}
	return r
}

// modelThroughput drives perfload's closed request loop against a memory
// model and reports completions/sec and allocations/op. A short warmup run
// first brings the engine's event pool and active run and the model's
// queues to steady state, so the measured window reflects the sustained
// access path rather than cold-start growth.
func modelThroughput(name string, n int, pattern perfload.LoopPattern, mk func(eng *sim.Engine) mem.Backend) Result {
	eng := sim.New()
	model := mk(eng)
	drv := perfload.NewClosedLoopPattern(eng, model, pattern)
	drv.Run(warmup(n))
	return measure(name, n, func() { drv.Run(n) })
}

// warmup is how many requests a closed loop runs unmeasured before a
// measurement of n.
func warmup(n int) int { return min(n/4, 50_000) }

// hpcgProfileRow profiles the HPCG proxy on spec for dur of simulated time
// against fam, through profile.Run as messprofile does. The row is priced
// per memory transaction the application issued (its Counting total), not
// per engine event: a change that removes events without removing traffic
// then reads as faster, not as less work.
func hpcgProfileRow(spec platform.Spec, fam *core.Family, dur sim.Time) Result {
	var app *workloads.PhasedApp
	return measureCounted("framework/hpcg_profile", func() int {
		c := app.Counting.Snapshot()
		return int(c.Reads + c.Writes)
	}, func() {
		app = workloads.NewPhasedApp(spec, workloads.HPCGPhases(), nil)
		profile.Run(app, "HPCG proxy on "+spec.Name, fam, dur)
	})
}

// mustFactory resolves a model kind or exits: the kinds here are literals.
func mustFactory(kind memmodel.Kind, spec platform.Spec, fam *core.Family) mem.BackendFactory {
	mk, err := memmodel.Factory(kind, spec, fam)
	if err != nil {
		cli.Fatal(err)
	}
	return mk
}

// pairedGate runs the change and parent binaries pairs times each with
// -out only, alternating which side goes first, gates the change's runs
// against the parent's and writes the change's per-row medians to out.
// Each child also holds its own run to the sampled-replay bounds.
func pairedGate(change, parent, out string) error {
	dir, err := os.MkdirTemp("", "messperf-gate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bins := [2]string{change, parent}
	var runs [2][]Report
	order := [2]int{1, 0} // parent first in even pairs, change first in odd
	for i := 0; i < pairs; i++ {
		for _, side := range order {
			path := filepath.Join(dir, fmt.Sprintf("%d-%d.json", i, side))
			if output, err := exec.Command(bins[side], "-out", path).CombinedOutput(); err != nil {
				return fmt.Errorf("gate: %s: %w\n%s", bins[side], err, output)
			}
			var rep Report
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err != nil {
				return fmt.Errorf("gate: %s: %w", bins[side], err)
			}
			runs[side] = append(runs[side], rep)
			fmt.Printf("pair %d/%d: ran %s\n", i+1, pairs, bins[side])
		}
		order[0], order[1] = order[1], order[0]
	}
	med, gerr := gate(runs[0], runs[1])
	if err := writeReport(med, out); err != nil {
		return err
	}
	return gerr
}

// cost is what a row spends: ns_per_op on op-counted rows, wall_ms on
// wall-only ones.
func cost(r Result) float64 {
	if r.Ops > 0 {
		return r.NsPerOp
	}
	return r.WallMs
}

// median returns the middle of xs (the upper one of an even count),
// sorting xs in place.
func median[T int64 | float64](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// samples returns the named row of every report, or false if one lacks it.
func samples(reps []Report, name string) ([]Result, bool) {
	rows := make([]Result, len(reps))
	for i, rep := range reps {
		j := slices.IndexFunc(rep.Results, func(r Result) bool { return r.Name == name })
		if j < 0 {
			return nil, false
		}
		rows[i] = rep.Results[j]
	}
	return rows, true
}

// gate holds the change's runs to the parent's, run i against run i, and
// fails on two kinds of regression, on every row:
//
//   - the median over pairs of the row's change/parent cost ratio above
//     maxSlowdown. The median lets a minority of disturbed pairs pass;
//     both sides of a pair ran on the same host seconds apart.
//   - the row's median allocs_per_op above the parent's: allocation counts
//     do not depend on the host, so the comparison is exact.
//
// A row either side lacks in some run is not gated. gate returns the
// change's per-row medians: of each row, the sample with the median cost.
func gate(change, parent []Report) (Report, error) {
	med := change[0]
	med.Results = nil
	var failures []string
	for _, r := range change[0].Results {
		cs, ok := samples(change, r.Name)
		if !ok {
			continue
		}
		byCost := slices.Clone(cs)
		slices.SortFunc(byCost, func(a, b Result) int { return cmp.Compare(cost(a), cost(b)) })
		med.Results = append(med.Results, byCost[len(byCost)/2])
		ps, ok := samples(parent, r.Name)
		if !ok {
			continue
		}
		ratios := make([]float64, len(cs))
		var was, now []int64 // allocs_per_op of the op-counted rows
		for i := range cs {
			ratios[i] = cost(cs[i]) / cost(ps[i])
			if cs[i].AllocsPerOp != nil && ps[i].AllocsPerOp != nil {
				was, now = append(was, *ps[i].AllocsPerOp), append(now, *cs[i].AllocsPerOp)
			}
		}
		ratio := median(ratios)
		status := "ok"
		if ratio > maxSlowdown {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.2f× the parent's cost (median of %d pairs, %.2f× allowed)",
				r.Name, ratio, len(cs), maxSlowdown))
		}
		fmt.Printf("gate %-30s %5.3f× (pairs %.2f..%.2f)  %s\n", r.Name, ratio, ratios[0], ratios[len(ratios)-1], status)
		if len(now) > 0 && median(now) > median(was) {
			failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op", r.Name, median(was), median(now)))
			fmt.Printf("gate %-30s %d -> %d allocs/op  FAIL\n", r.Name, median(was), median(now))
		}
	}
	if len(failures) > 0 {
		return med, fmt.Errorf("gate: regression vs the parent:\n  %s", strings.Join(failures, "\n  "))
	}
	return med, nil
}

// writeReport writes rep to path as indented JSON.
func writeReport(rep Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	var (
		out        = flag.String("out", "BENCH_sim.json", "write the JSON report here")
		parent     = flag.String("gate", "", fmt.Sprintf("the parent commit's messperf binary: run it and this one in %d alternating pairs and fail any row whose median cost ratio exceeds %.2f×", pairs, maxSlowdown))
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured region here")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the measured region here")
	)
	tel := cli.TelemetryFlags()
	flag.Parse()

	if *parent != "" {
		self, err := os.Executable()
		if err != nil {
			cli.Fatal(err)
		}
		if err := pairedGate(self, *parent, *out); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("gate passed: no row more than %.2f× the parent's cost, no allocs/op rise\n", maxSlowdown)
		return
	}

	// One registry spans every framework-layer measurement; its snapshot
	// lands in the report's telemetry block so the trajectory records the
	// amount of simulation work behind the wall-clock rows.
	set := tel.Set()
	set.Metrics = telemetry.NewRegistry()

	rep := Report{
		Schema:     Schema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BestOf:     bestOf,
	}
	// best re-takes a whole measurement (engine construction, warmup and
	// all) bestOf times and keeps the best sample, so every recorded row
	// is comparably the machine's noise floor.
	best := func(f func() Result) Result {
		r := f()
		for i := 1; i < bestOf; i++ {
			if s := f(); better(s, r) {
				r = s
			}
		}
		return r
	}
	add := func(r Result) {
		rep.Results = append(rep.Results, r)
		if r.MBPerSec > 0 {
			fmt.Printf("%-28s %10.1f ns/op %12.1f MB/s %8d mallocs %12d B %6.1f ms\n",
				r.Name, r.NsPerOp, r.MBPerSec, r.Mallocs, r.AllocBytes, r.WallMs)
		} else if r.EventsPerSec > 0 {
			var allocs int64
			if r.AllocsPerOp != nil {
				allocs = *r.AllocsPerOp
			}
			fmt.Printf("%-28s %10.1f ns/op %12.0f events/s %6d allocs/op %10.1f ms\n",
				r.Name, r.NsPerOp, r.EventsPerSec, allocs, r.WallMs)
		} else if r.SpeedupX > 0 {
			fmt.Printf("%-28s %32s divergence %5.2f%% %6.1f× %8.1f ms\n",
				r.Name, "", r.DivergencePct, r.SpeedupX, r.WallMs)
		} else {
			fmt.Printf("%-28s %49s %10.1f ms\n", r.Name, "", r.WallMs)
		}
	}
	// The profile window covers exactly the measurements: it opens here,
	// after flag handling and report setup, and closes (below) before the
	// report is written and the sampled replay gated, so kernel and
	// scheduler hot spots are not diluted by artifact bookkeeping.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatal(err)
		}
	}
	kernel := func(name string, load func(*sim.Engine, int)) {
		add(best(func() Result {
			eng := sim.New()
			n := kernelEvents
			// Warm the engine first (event pool, active run, overflow
			// array), so the measurement is of the sustained path rather
			// than cold-start growth.
			load(eng, n/8)
			return measure("kernel/"+name, n, func() { load(eng, n) })
		}))
	}

	kernel("schedule_fire", perfload.ScheduleFire)
	kernel("wheel_dense", perfload.WheelDense)
	kernel("far_horizon", perfload.FarHorizon)
	// The row keeps its name from the kernel's former Timer: it prices a
	// component re-scheduling its stored wake callback inside each fire.
	kernel("timer_rearm", perfload.TimerRearm)

	// The detailed DRAM model is measured under three traffic regimes: the
	// historical reference pattern (hit-friendly streams), a mapper-
	// defeating random walk (row-miss-dominated) and a 2:1 read/write mix
	// (write-queue drains) — the scheduler regressions each can hide from
	// the others.
	mkReference := mustFactory(memmodel.KindReference, platform.Skylake(), nil)
	modelBest := func(name string, pattern perfload.LoopPattern, mk func(eng *sim.Engine) mem.Backend) {
		add(best(func() Result { return modelThroughput(name, modelEvents, pattern, mk) }))
	}
	modelBest("model/dram_reference", perfload.PatternReference, mkReference)
	modelBest("model/dram_random", perfload.PatternRandom, mkReference)
	modelBest("model/dram_mixed", perfload.PatternMixed, mkReference)

	// The CXL expander under the same closed loop; TimedOn carries the
	// host hop on the device's own engine.
	add(best(func() Result {
		eng := sim.New()
		dev := cxl.New(eng, cxl.Default())
		chop := platform.Skylake().CacheConfig().OnChipLatency / 2
		drv := perfload.NewTimedClosedLoop(eng, &mem.TimedOn{Eng: eng, Inner: dev}, chop, perfload.PatternReference)
		drv.Run(warmup(modelEvents))
		return measure("model/cxl", modelEvents, func() { drv.Run(modelEvents) })
	}))

	// The Mess analytical simulator needs a curve family; its production is
	// itself the framework-level measurement (a Quick characterization on a
	// fresh service = the full sweep, uncached).
	spec := platform.Skylake()
	spec.Cores = 8
	spec.DRAM.Channels = 3
	// A whole sweep is priced per simulated event, read off the registry's
	// event counter: what the harness allocates around its points shows in
	// the row's mallocs and alloc_bytes and is under the allocs gate.
	events := set.Registry().Counter("mess_sim_events_total")
	sweep := func(name string, run func()) Result {
		e0 := events.Value()
		return measureCounted(name, func() int { return int(events.Value() - e0) }, run)
	}
	var fam *core.Family
	add(best(func() Result {
		return sweep("framework/characterize_quick", func() {
			svc := charz.New(charz.Config{Telemetry: set})
			art, err := svc.Characterize(charz.Request{Spec: spec, Options: bench.QuickOptions()})
			if err != nil {
				cli.Fatal(err)
			}
			fam = art.Family
		})
	}))
	// The HPCG proxy on the same Quick-scaled Skylake, profiled against that
	// family for fig15's Quick duration.
	add(best(func() Result { return hpcgProfileRow(spec, fam, 700*sim.Microsecond) }))
	// The closed loop has no CPU side, so no on-chip latency to subtract:
	// the zero platform.
	modelBest("model/mess_simulator", perfload.PatternReference, mustFactory(memmodel.KindMess, platform.Spec{}, fam))

	// The Quick fig2 experiment on a fresh service.
	add(best(func() Result {
		return sweep("framework/fig2_quick", func() {
			e, _ := exp.ByID("fig2")
			env := exp.NewEnv(exp.Quick, charz.New(charz.Config{Telemetry: set}))
			if _, err := e.Run(env); err != nil {
				cli.Fatal(err)
			}
		})
	}))

	// One fully-loaded sweep point (all generators unpaced, 0% stores): a
	// sweep's wall-clock without the sweep.
	popt := bench.QuickOptions()
	popt.Telemetry = set
	pointRow := func(name string, spec platform.Spec) {
		add(best(func() Result {
			return measure(name, 0, func() {
				if _, err := bench.MeasurePoint(spec, popt, bench.Mix{}, 0); err != nil {
					cli.Fatal(err)
				}
			})
		}))
	}
	// fig2's platform: the Quick-scaled Skylake.
	point := platform.Skylake()
	point.Cores = 12
	point.DRAM.Channels = 3
	pointRow("framework/fig2_point", point)
	// The 8-channel gem5 Graviton 3 model (cores scaled down so the point
	// stays Quick-sized).
	fig4 := platform.Gem5Graviton3()
	fig4.Cores = 12
	pointRow("framework/fig4_point", fig4)

	// The fig6-class trace-replay pair: one mid-pressure trace (40% stores,
	// 16 ns pacing) is captured once on the same Quick-scaled Skylake, then
	// replayed into the DRAMsim3 replica in full (framework/fig6_replay,
	// priced per record: the replica serves, so this prices Replay's loop
	// of Serve calls, not the event feed) and through the phase-clustered
	// sampler (framework/fig6_replay_sampled). The
	// capture is held packed, as fig6's are, so these two rows and
	// io/trace_save price reading the packed form; io/trace_read prices Read,
	// which builds a []Record trace. The sampled row additionally records how
	// far its reconstructed estimates diverge from the full replay and what
	// fraction of the records it avoided simulating; both numbers are
	// deterministic per trace, so sampledGate holds them to hard accuracy
	// bounds next to the (host-dependent) wall-clock columns.
	topt := bench.QuickOptions()
	// Sampling pays off only when the trace holds many windows of a
	// span long enough for queueing to reach steady state (~µs); the
	// default Quick measure window would yield barely a dozen.
	topt.Measure = 192 * sim.Microsecond
	tr, _, err := trace.CapturePoint(context.Background(), point, topt, bench.Mix{StorePercent: 40}, 16, 400_000)
	if err != nil {
		cli.Fatal(err)
	}

	// The same trace through the release text format, in memory: what
	// messtrace -capture and -replay spend outside the simulation.
	// An unmeasured save first grows the buffer the measured ones refill,
	// so the row's alloc_bytes are Save's own.
	var text bytes.Buffer
	save := func() {
		text.Reset()
		if err := tr.Save(&text); err != nil {
			cli.Fatal(err)
		}
	}
	save()
	add(best(func() Result {
		return withMBPerSec(measure("io/trace_save", tr.Len(), save), text.Len())
	}))
	add(best(func() Result {
		r := measure("io/trace_read", tr.Len(), func() {
			back, err := trace.Read(bytes.NewReader(text.Bytes()))
			if err != nil {
				cli.Fatal(err)
			}
			if len(back.Records) != tr.Len() {
				cli.Fatal(fmt.Errorf("io/trace_read: %d records read back, %d saved", len(back.Records), tr.Len()))
			}
		})
		return withMBPerSec(r, text.Len())
	}))

	mkReplay := mustFactory(memmodel.KindDRAMsim3, point, nil)
	var full trace.ReplayResult
	add(best(func() Result {
		return measure("framework/fig6_replay", tr.Len(), func() {
			eng := sim.New()
			full = trace.Replay(eng, mkReplay(eng), tr)
		})
	}))
	mapper := dram.NewMapper(&point.DRAM)
	add(best(func() Result {
		var sam *trace.SampledResult
		r := measure("framework/fig6_replay_sampled", 0, func() {
			var err error
			sam, err = trace.Sampled(mkReplay, tr, trace.SampleConfig{
				Span:    2 * sim.Microsecond,
				BankRow: mapper.BankRow,
			})
			if err != nil {
				cli.Fatal(err)
			}
		})
		r.DivergencePct = sam.DivergencePct(full)
		r.SpeedupX = sam.SpeedupX
		return r
	}))

	// End of the measured region: stop the CPU profile and snapshot the
	// heap before any report or gate work allocates on top of it.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			cli.Fatal(err)
		}
		runtime.GC() // settle accumulators so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			cli.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memProfile)
	}

	rep.Telemetry = set.Registry().Snapshot()
	if err := writeReport(rep, *out); err != nil {
		cli.Fatal(err)
	}

	r, err := sampledGate(rep)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("gate passed: sampled replay divergence %.2f%%, record reduction %.1f×\n",
		r.DivergencePct, r.SpeedupX)
}

// sampledGate checks the sampled-replay row against its accuracy bounds
// (maxDivergencePct, minSpeedupX) and returns it. It needs no baseline:
// divergence and record reduction are absolute, deterministic properties
// of this build against its own full replay. A report without the row
// fails: the gate must have something to gate.
func sampledGate(fresh Report) (Result, error) {
	i := slices.IndexFunc(fresh.Results, func(r Result) bool { return r.Name == "framework/fig6_replay_sampled" })
	if i < 0 {
		return Result{}, errors.New("gate: no framework/fig6_replay_sampled row to check the sampled-replay bounds against")
	}
	r := fresh.Results[i]
	if r.DivergencePct > maxDivergencePct {
		return r, fmt.Errorf("gate: sampled replay diverges %.2f%% from the full replay (> %.1f%% allowed)",
			r.DivergencePct, float64(maxDivergencePct))
	}
	if r.SpeedupX < minSpeedupX {
		return r, fmt.Errorf("gate: sampled replay simulated too much of the trace: %.1f× record reduction (< %.1f× required)",
			r.SpeedupX, float64(minSpeedupX))
	}
	return r, nil
}
