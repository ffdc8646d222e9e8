// Command messperf runs the repository's hot-path performance suite and
// writes the results as a JSON trajectory artifact (BENCH_sim.json by
// default), so kernel and simulator speed is tracked across changes the
// same way the figures track accuracy.
//
// It measures three layers, using the canonical workloads of
// internal/perfload (shared with the root -bench=Kernel benchmarks, so the
// gate and the trajectory always measure the same thing):
//
//   - the event kernel: schedule/fire throughput on the wheel and overflow
//     paths, cancel churn, and timer re-arming;
//   - the memory models: events/sec and allocs/op of the detailed DRAM
//     reference model and the Mess analytical simulator under closed-loop
//     load (the zero-allocation request-lifecycle claim is a tracked
//     artifact: allocs_per_op on these rows must stay ≈ 0);
//   - the framework: wall-clock of a Quick-scale characterization and of
//     the fig2 experiment (full benchmark sweeps on fresh services, no
//     caches; since v7 priced per simulated event, so their mallocs,
//     alloc_bytes and allocs_per_op put what a sweep allocates around its
//     points under the allocs gate), plus a single fully-loaded sweep point
//     on the Quick-scaled Skylake and on the 8-channel Graviton 3 model
//     (framework/fig2_point, framework/fig4_point).
//     Since v4 the framework layer also measures the trace-replay pair:
//     one fig6-class trace captured on the Quick-scaled platform, replayed
//     in full (framework/fig6_replay) and through the phase-clustered
//     sampler (framework/fig6_replay_sampled). The sampled row carries
//     divergence_pct and speedup_x — deterministic accuracy numbers that
//     every run holds to hard bounds (maxDivergencePct, minSpeedupX).
//     Since v8 the full-replay row is priced per trace record, and the same
//     trace measures the release text format: io/trace_save and
//     io/trace_read write and parse it in memory, one op per record, with
//     mb_per_s beside the usual columns and their allocs_per_op (0: a
//     handful of buffers per call) under the allocs gate.
//     Since v5 there is the CXL expander's closed loop (model/cxl).
//     Since v10 framework/hpcg_profile profiles the HPCG proxy (the paper's
//     Sec. VI case, and the suite's one row driven by KernelCore cores)
//     against the characterize_quick family, priced per memory transaction.
//     Until v8 every DRAM row had a sharded twin (the same simulation on
//     per-channel shard engines); the twins lost on every pair, 1.9–4.9×,
//     and are gone. The gate ignores baseline rows a fresh run lacks.
//
// With -cpuprofile/-memprofile, messperf writes pprof profiles covering
// exactly the measured region (every benchmark, none of the report or
// gate machinery) — the intended way to hunt kernel or scheduler hot spots
// on a machine where a row regressed.
//
// Every measurement is taken bestOf (3) times and only the best sample
// (highest events/sec; lowest wall-clock for wall-only rows) is recorded
// and gated. Single runs on shared CI runners carry scheduling noise well
// above the 10% previous-run gate; the best of three is a far more stable
// estimator of what the code can do on that machine.
//
// With -gate, messperf additionally compares the fresh results against a
// baseline artifact and exits nonzero when any kernel benchmark's
// events/sec dropped by more than gateDrop (30%), or when any result's
// allocs_per_op rose above its baseline (a machine-independent check:
// 0 → ≥1 allocs/op fails anywhere). -gate-prev layers a second, tighter
// gate over the same measurement at gatePrevDrop (10%): CI always enforces
// the committed BENCH_sim.json at the loose bound (an absolute
// cross-machine floor that a chain of small regressions cannot ratchet
// away) and, when the previous successful run of the branch left an
// artifact, additionally enforces that one at the tight bound — successive
// runs share a runner class, so it tracks real drift.
//
// The run's shape (event counts, sample count, bounds) is fixed: a baseline
// is only comparable with a run of the same shape, so the only flags are
// file paths.
//
// Usage:
//
//	messperf [-out BENCH_sim.json] [-gate BENCH_sim.json] [-gate-prev prev.json]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
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
	"github.com/mess-sim/mess/internal/trace"
	"github.com/mess-sim/mess/internal/workloads"
)

// Schema identifies the BENCH_sim.json format. v2 added allocs_per_op to
// every op-counted result; v3 added framework/fig2_point; v4 added the
// trace-replay pair (framework/fig6_replay, framework/fig6_replay_sampled)
// with the sampled row's divergence_pct and speedup_x accuracy fields; v5
// added the CXL closed loop (model/cxl) and framework/fig4_point; v6 added
// the top-level telemetry block — a snapshot of the run's internal metrics
// registry (bench sweep-point and charz source counters), so the
// trajectory records not only how fast the suite ran but how much
// simulation work it did; v7 added alloc_bytes to
// every op-counted row and made framework/characterize_quick and
// framework/fig2_quick op-counted, one op per simulated event; v8 added
// the io/trace_save and io/trace_read rows with their mb_per_s field and
// made framework/fig6_replay op-counted, one op per trace record; v9
// dropped the sharded rows of v3 and v5 (model/dram_sharded,
// framework/fig2_quick_sharded, framework/fig2_point_sharded,
// framework/fig4_point_sharded) with their per-row gomaxprocs, windows,
// avg_window_ns and parks fields; v10 added framework/hpcg_profile, one op
// per memory transaction the application issued. The telemetry block is
// never gated and its series are not part of the schema: it now holds the
// counters mess_bench_points_total and mess_sim_events_total only (the
// charz source counts live in charz.Stats), still under v10.
const Schema = "mess-perf/v10"

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
	// gateDrop and gatePrevDrop are the largest fractional events/sec drop
	// a kernel benchmark may show against -gate and -gate-prev.
	gateDrop     = 0.30
	gatePrevDrop = 0.10
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

// gate compares fresh results against a baseline artifact and fails on two
// kinds of regression:
//
//   - a kernel benchmark losing more than maxDrop of its events/sec. This
//     is a same-class-machine comparison: the committed baseline and the
//     runner differ, so the bound is deliberately loose — it catches
//     order-of-magnitude breakage (an accidental O(n) queue, a lost fast
//     path), not percent-level drift. Model and framework rows are
//     trajectory-only for the same reason.
//   - any result whose allocs_per_op integer rose above its baseline. This
//     check is machine-independent (allocation counts do not depend on the
//     runner), so a hot path regressing from 0 to ≥1 allocs/op fails
//     anywhere.
func gate(fresh Report, baselinePath string, maxDrop float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gate: read baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("gate: parse baseline: %w", err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var failures []string
	for _, r := range fresh.Results {
		was, ok := baseline[r.Name]
		if !ok {
			continue // new benchmark: no trajectory yet
		}
		if strings.HasPrefix(r.Name, "kernel/") && r.EventsPerSec > 0 && was.EventsPerSec > 0 {
			drop := 1 - r.EventsPerSec/was.EventsPerSec
			status := "ok"
			if drop > maxDrop {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f events/s (%.0f%% drop > %.0f%% allowed)",
					r.Name, was.EventsPerSec, r.EventsPerSec, 100*drop, 100*maxDrop))
			}
			fmt.Printf("gate %-28s %12.0f -> %12.0f events/s  %+6.1f%%  %s\n",
				r.Name, was.EventsPerSec, r.EventsPerSec, -100*drop, status)
		}
		if r.AllocsPerOp != nil && was.AllocsPerOp != nil && *r.AllocsPerOp > *was.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op",
				r.Name, *was.AllocsPerOp, *r.AllocsPerOp))
			fmt.Printf("gate %-28s %12d -> %12d allocs/op  FAIL\n", r.Name, *was.AllocsPerOp, *r.AllocsPerOp)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate: regression vs %s:\n  %s",
			baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	var (
		out         = flag.String("out", "BENCH_sim.json", "write the JSON report here")
		gateAgainst = flag.String("gate", "", fmt.Sprintf("baseline BENCH_sim.json to gate kernel events/sec against (%.0f%% drop allowed)", 100*gateDrop))
		gatePrev    = flag.String("gate-prev", "", fmt.Sprintf("additional baseline (the previous CI run's artifact) to gate against (%.0f%% drop allowed)", 100*gatePrevDrop))
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the measured region here")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken at the end of the measured region here")
	)
	tel := cli.TelemetryFlags()
	flag.Parse()

	// One registry spans every framework-layer measurement; its snapshot
	// lands in the report's telemetry block so the trajectory records the
	// amount of simulation work behind the wall-clock rows.
	set := tel.Set()

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
	// report is marshalled and the gates run, so kernel and scheduler hot
	// spots are not diluted by artifact bookkeeping.
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
	kernel("schedule_cancel", perfload.Cancel)
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
	// replayed in full (framework/fig6_replay, priced per record) and through
	// the phase-clustered sampler (framework/fig6_replay_sampled). The sampled
	// row additionally records how far its reconstructed estimates diverge
	// from the full replay and what fraction of the records it avoided
	// simulating; both numbers are deterministic per trace, so sampledGate
	// holds them to hard accuracy bounds next to the (noisy,
	// trajectory-only) wall-clock columns.
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
		return withMBPerSec(measure("io/trace_save", len(tr.Records), save), text.Len())
	}))
	add(best(func() Result {
		r := measure("io/trace_read", len(tr.Records), func() {
			back, err := trace.Read(bytes.NewReader(text.Bytes()))
			if err != nil {
				cli.Fatal(err)
			}
			if len(back.Records) != len(tr.Records) {
				cli.Fatal(fmt.Errorf("io/trace_read: %d records read back, %d saved", len(back.Records), len(tr.Records)))
			}
		})
		return withMBPerSec(r, text.Len())
	}))

	mkReplay := mustFactory(memmodel.KindDRAMsim3, point, nil)
	var full trace.ReplayResult
	add(best(func() Result {
		return measure("framework/fig6_replay", len(tr.Records), func() {
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

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		cli.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	// Both gates see the same fresh results — one measurement, two bounds.
	for _, g := range []struct {
		path string
		drop float64
	}{{*gateAgainst, gateDrop}, {*gatePrev, gatePrevDrop}} {
		if g.path == "" {
			continue
		}
		if err := gate(rep, g.path, g.drop); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("gate passed: no kernel benchmark dropped more than %.0f%% vs %s\n", 100*g.drop, g.path)
	}

	r, err := sampledGate(rep)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("gate passed: sampled replay divergence %.2f%%, speedup %.1f×\n",
		r.DivergencePct, r.SpeedupX)
}

// sampledGate checks the sampled-replay row against its accuracy bounds
// (maxDivergencePct, minSpeedupX) and returns it. It needs no baseline:
// divergence and speedup are absolute, deterministic properties of this
// build against its own full replay. A report without the row fails: the
// gate must have something to gate.
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
		return r, fmt.Errorf("gate: sampled replay simulated too much of the trace: %.1f× speedup (< %.1f× required)",
			r.SpeedupX, float64(minSpeedupX))
	}
	return r, nil
}
