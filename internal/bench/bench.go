// Package bench orchestrates the Mess benchmark (Sec. II): one pointer-chase
// core measures load-to-use latency while the remaining cores run paced
// traffic generators; sweeping the generator pacing and the load/store mix
// produces the platform's family of bandwidth–latency curves.
//
// The runner works against any memory backend — the detailed DRAM model
// (standing in for actual hardware) or any model from the zoo — which is
// exactly how the paper uses the benchmark to characterize both servers
// (Sec. III) and simulators (Sec. IV).
//
// # Warm rigs
//
// Each sweep worker owns one rig, the whole simulated machine, and resets
// it between points. A reset is the constructor run again over retained
// storage, with no second construction path and no switch, so a reset rig
// and a new one run the same code from the same state. A rig never
// outlives its sweep: a process-wide pool of warm engines was measured and
// rejected (wall time flat, peak RSS +72%, as engines grown by trace replay
// stayed resident). TestRigReuseMatchesFresh, TestRigResetFromMidFlight and
// TestWarmRigGarbage, with the Reset tests of sim, mem, cache, dram and
// cxl, are the gates; CI runs them -race -shuffle=on -count=3.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// Mix is one traffic composition of the sweep: the percentage of kernel
// memory instructions that are stores and whether stores are non-temporal.
// Regular stores on write-allocate systems produce read ratios in [0.5, 1];
// non-temporal stores reach the write-heavy half of the space.
type Mix struct {
	StorePercent int
	NonTemporal  bool
}

func (m Mix) String() string {
	nt := ""
	if m.NonTemporal {
		nt = " (NT)"
	}
	return fmt.Sprintf("%d%% stores%s", m.StorePercent, nt)
}

// Options configure a benchmark run.
type Options struct {
	// Mixes to sweep. Default: the paper's, store percentages 0..100 in
	// steps of 10 with regular stores (read ratios 1.0 → 0.5), then
	// non-temporal stores at 40, 70 and 100%, which reach the write-heavy
	// half of the space.
	Mixes []Mix
	// PacesNs is the per-op pacing sweep in nanoseconds (the nopCount
	// knob). Default: a log-spaced ladder of 20 steps from 0 (full
	// pressure) to 768.
	PacesNs []float64
	// Warmup and Measure are the simulated durations of the warm-up and
	// measurement windows for every point.
	Warmup  sim.Time
	Measure sim.Time
	// Parallelism bounds concurrent measurement points (each point owns an
	// engine). Default: GOMAXPROCS.
	Parallelism int
	// Backend overrides the memory system under test; nil uses the
	// platform's detailed DRAM model.
	Backend mem.BackendFactory
	// Cache overrides the platform's derived cache configuration — used
	// for failure injection (e.g. the OpenPiton clean-eviction bug).
	Cache *cache.Config
	// Shards is ignored: every point runs on one engine. The benchmark
	// module's point-sharded workload still sets it, so the field stays
	// until that workload stops; Normalized clears it, so it never reaches
	// a cache key.
	Shards int
	// Telemetry, when set, observes the run: per-point spans on its tracer,
	// sweep counters and throughput on its registry. Observation never
	// changes results (the determinism tests run with it attached), so it
	// is execution-only and cleared by Normalized.
	Telemetry *telemetry.Set
}

func (o *Options) withDefaults() Options {
	out := *o
	if len(out.Mixes) == 0 {
		for s := 0; s <= 100; s += 10 {
			out.Mixes = append(out.Mixes, Mix{StorePercent: s})
		}
		for _, s := range []int{40, 70, 100} {
			out.Mixes = append(out.Mixes, Mix{StorePercent: s, NonTemporal: true})
		}
	}
	if len(out.PacesNs) == 0 {
		out.PacesNs = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768}
	}
	if out.Warmup == 0 {
		out.Warmup = 20 * sim.Microsecond
	}
	if out.Measure == 0 {
		out.Measure = 50 * sim.Microsecond
	}
	if out.Parallelism == 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	return out
}

// Normalized returns the options with every sweep-defining field filled
// with its default and every execution-only knob cleared. Two Options
// values describing the same sweep normalize to the same value regardless
// of the host, which is what makes them usable as cache-key material:
// Parallelism (a host-dependent execution bound) is zeroed, and Backend (a
// function value with no stable identity) is dropped — callers that swap
// the backend must carry its identity in the cache key themselves.
func (o Options) Normalized() Options {
	out := o.withDefaults()
	out.Parallelism = 0
	out.Backend = nil
	out.Shards = 0 // ignored, so it must not split cache entries
	out.Telemetry = nil
	return out
}

// Sample is one measurement point.
type Sample struct {
	Mix     Mix
	PaceNs  float64
	BWGBs   float64
	LatNs   float64
	RdRatio float64
	// Row-buffer statistics over the measurement window, when the backend
	// exposes them (fractions; zero otherwise).
	RowHit, RowEmpty, RowMiss float64
	ChaseSamples              uint64
}

// Result is a complete benchmark run.
type Result struct {
	Spec    platform.Spec
	Family  *core.Family
	Samples []Sample
}

// rowStatser is implemented by backends that expose row-buffer counters.
type rowStatser interface{ RowStats() dram.RowStats }

// Run executes the sweep for the platform and assembles the curve family.
//
// Points are distributed over Parallelism workers (par.Workers). Each worker
// owns one rig — the whole simulated machine — for the sweep and resets it
// between points, so event pools, request records and controller queues stay
// warm instead of being rebuilt (and re-grown) for every measurement. Each
// point still simulates in complete isolation — a reset rig is in the state
// a new one is built in — so results are independent of how points map onto
// workers.
func Run(spec platform.Spec, opt Options) (*Result, error) {
	return RunContext(context.Background(), spec, opt)
}

// RunContext is Run under a caller-supplied context. A measurement point
// is atomic — the simulation kernel has no preemption points — so
// cancellation is observed at point boundaries: no point is handed out once
// ctx is done, each worker finishes (at most) the point it is on, and
// RunContext returns ctx.Err(). Worst-case cancellation latency is
// therefore one sweep point per worker, which a Quick sweep's points keep
// in the tens of milliseconds.
func RunContext(ctx context.Context, spec platform.Spec, opt Options) (*Result, error) {
	o := opt.withDefaults()
	// Point 0 is the unloaded anchor: the pointer chase alone, as the paper
	// measures the unloaded latency (validated against LMbench/multichase).
	// It becomes the first point of every curve. Point 1+m·paces+p is mix
	// m at pace p.
	paces := len(o.PacesNs)
	samples := make([]Sample, 1+len(o.Mixes)*paces)

	// A nonsensical Parallelism must not starve the sweep.
	workers := max(1, min(o.Parallelism, len(samples)))

	// Telemetry is pure observation: nil-safe metric handles and tracer
	// calls, so the uninstrumented path pays a few nil checks per point.
	tr := o.Telemetry.Trace()
	reg := o.Telemetry.Registry()
	pointsC := reg.Counter("mess_bench_points_total")
	eventsC := reg.Counter("mess_sim_events_total")
	var totalSteps atomic.Uint64
	wallStart := time.Now()
	sweepSpan := tr.Begin(tr.NewTrack("bench", "sweep"), "sweep "+spec.Name)

	// Worker w owns rigs[w] and draws its points on tracks[w]; the tracks are
	// made here, in worker order, so a trace does not depend on which worker
	// woke first.
	rigs := make([]*rig, workers)
	tracks := make([]telemetry.Track, workers)
	for w := range rigs {
		rigs[w] = newRig()
		tracks[w] = tr.NewTrack("bench", fmt.Sprintf("worker-%d", w))
	}
	sweepErr := par.Workers(ctx, workers, len(samples), func(w, i int) (err error) {
		r := rigs[w]
		if i == 0 {
			samples[0], err = r.measure(spec, o, tracks[w], Mix{}, 0, 0)
		} else {
			samples[i], err = r.measure(spec, o, tracks[w], o.Mixes[(i-1)/paces], o.PacesNs[(i-1)%paces], spec.Cores-1)
		}
		pointsC.Inc()
		totalSteps.Add(r.eng.Steps())
		return err
	})
	eventsC.Add(int64(totalSteps.Load()))
	sweepSpan.End(telemetry.Int("points", int64(len(samples))), telemetry.Int("events", int64(totalSteps.Load())))
	o.Telemetry.Logger().Debug("bench sweep done",
		"spec", spec.Name, "points", len(samples), "events", totalSteps.Load(),
		"elapsed", time.Since(wallStart).Round(time.Millisecond))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sweepErr != nil {
		return nil, sweepErr
	}

	fam := assemble(spec, o, samples[1:], samples[0])
	return &Result{Spec: spec, Family: fam, Samples: samples[1:]}, nil
}

// MeasurePoint simulates one fully-loaded sweep point on a rig of its own and
// reports its sample — the interactive "explore this configuration now" case.
// Generators occupy every core but the chaser's.
func MeasurePoint(spec platform.Spec, opt Options, mix Mix, paceNs float64) (Sample, error) {
	o := opt.withDefaults()
	return newRig().measure(spec, o, o.Telemetry.Trace().NewTrack("bench", "point"), mix, paceNs, spec.Cores-1)
}

// MeasureUnloaded runs only the pointer chase and reports the unloaded
// load-to-use latency — the LMbench/multichase validation measurement.
func MeasureUnloaded(spec platform.Spec, opt Options) (float64, error) {
	o := opt.withDefaults()
	s, err := newRig().measure(spec, o, telemetry.Track{}, Mix{}, 0, 0) // zero generators
	if err != nil {
		return 0, err
	}
	return s.LatNs, nil
}

// rig is the simulated machine a sweep worker measures its points on: the
// engine, the cache hierarchy with its request pool, and the platform's
// detailed DRAM system. It lives as long as its worker and is reset at the
// start of every point; each part's Reset is its constructor run again over
// the storage the part has grown, so a point on a used rig and on a new one
// run the same code from the same state. Rigs do not outlive their sweep: an
// engine grown by one large simulation would hold that memory for every small
// one after it.
type rig struct {
	eng  *sim.Engine
	hier cache.Hierarchy

	// The detailed DRAM system of the last point that used one, and what it
	// was built from. A custom factory's product is opaque (a trace capture,
	// a device with state of its own), so it is built anew for every point.
	dram interface {
		mem.Backend
		Reset()
	}
	dramCfg dram.Config
}

func newRig() *rig { return &rig{eng: sim.New()} }

// reset returns the rig's engine to time zero and reports the memory system
// for the next point, itself new or reset.
func (r *rig) reset(spec platform.Spec, o Options) mem.Backend {
	r.eng.Reset()
	if o.Backend != nil {
		return o.Backend(r.eng)
	}
	if r.dram != nil && r.dramCfg == spec.DRAM {
		r.dram.Reset()
	} else {
		r.dram, r.dramCfg = dram.New(r.eng, spec.DRAM), spec.DRAM
	}
	return r.dram
}

// measure simulates one sweep point on the rig.
func (r *rig) measure(spec platform.Spec, o Options, track telemetry.Track, mix Mix, paceNs float64, generators int) (Sample, error) {
	eng := r.eng
	var sp telemetry.SpanTimer
	if tr := o.Telemetry.Trace(); tr != nil {
		sp = tr.Begin(track, pointName(mix, paceNs, generators))
	}
	backend := r.reset(spec, o)
	counting := mem.NewCounting(backend)
	ccfg := spec.CacheConfig()
	if o.Cache != nil {
		ccfg = *o.Cache
	}
	hier := &r.hier
	hier.Reset(eng, ccfg, counting)

	// Pointer chaser on core 0, in its own address region, over 1<<19 lines
	// (32 MiB: far beyond any LLC).
	const chaseBase, chaseLines = 1 << 40, 1 << 19
	chaser := cpu.NewChaser(eng, hier.Port(), chaseBase, chaseLines, 12345)
	chaser.Start()

	// Traffic generators on the remaining cores. Each core gets disjoint
	// load/store arrays; bases are staggered by an extra bank-sized offset
	// so concurrent streams spread across banks like distinct allocations.
	gens := make([]*cpu.Generator, 0, generators)
	for g := 0; g < generators; g++ {
		base := uint64(1)<<33 + uint64(g)*(1<<28+16<<10)
		gen := cpu.NewGenerator(eng, hier.Port(), cpu.GenConfig{
			StorePercent: mix.StorePercent,
			NonTemporal:  mix.NonTemporal,
			PacePerOp:    sim.FromNanoseconds(paceNs),
			LoadBase:     base,
			StoreBase:    base + 1<<27 + 32<<10,
			ArrayBytes:   32 << 20, // per generator
		})
		gen.Start()
		gens = append(gens, gen)
	}

	// Warm up, then measure over a counter delta.
	eng.RunUntil(o.Warmup)
	chaser.ResetStats()
	c0 := counting.Snapshot()
	var rs0 dram.RowStats
	statser, hasRows := backend.(rowStatser)
	if hasRows {
		rs0 = statser.RowStats()
	}
	t0 := eng.Now()

	eng.RunUntil(o.Warmup + o.Measure)
	c1 := counting.Snapshot()
	t1 := eng.Now()
	lat, n := chaser.MeanLatency()
	// The point is over whatever it measured: no issuer may still be running
	// when the worker resets the rig for its next point.
	for _, g := range gens {
		g.Stop()
	}
	chaser.Stop()
	if n == 0 {
		sp.End()
		return Sample{}, fmt.Errorf("bench: %s mix %v pace %.1f ns: chaser recorded no samples", spec.Name, mix, paceNs)
	}

	delta := c1.Sub(c0)
	s := Sample{
		Mix:          mix,
		PaceNs:       paceNs,
		BWGBs:        delta.BandwidthGBs(t1 - t0),
		LatNs:        lat.Nanoseconds(),
		RdRatio:      delta.ReadRatio(),
		ChaseSamples: n,
	}
	if hasRows {
		hit, empty, miss := statser.RowStats().Sub(rs0).Ratios()
		s.RowHit, s.RowEmpty, s.RowMiss = hit, empty, miss
	}
	sp.End(telemetry.Float("bw_gbs", s.BWGBs), telemetry.Float("lat_ns", s.LatNs))
	return s, nil
}

// pointName labels one sweep point for tracing: stable across runs of the
// same sweep, unique within it.
func pointName(mix Mix, paceNs float64, generators int) string {
	if generators == 0 {
		return "point unloaded"
	}
	nt := ""
	if mix.NonTemporal {
		nt = "nt"
	}
	return fmt.Sprintf("point s%d%s p%g", mix.StorePercent, nt, paceNs)
}

// assemble groups samples by mix into curves ordered by injection pressure
// (descending pace), sanitizes them, and tags each curve with the measured
// read ratio. Every curve starts at the unloaded anchor.
func assemble(spec platform.Spec, o Options, samples []Sample, unloaded Sample) *core.Family {
	mixes := make([][]core.Measured, len(o.Mixes))
	for mi, mix := range o.Mixes {
		// Pressure ascends as pace descends.
		ordered := make([]Sample, 0, len(o.PacesNs))
		for _, s := range samples {
			if s.Mix == mix {
				ordered = append(ordered, s)
			}
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].PaceNs > ordered[j].PaceNs })
		for _, s := range ordered {
			if s.BWGBs <= unloaded.BWGBs {
				// A paced point below the anchor carries no information.
				continue
			}
			mixes[mi] = append(mixes[mi], core.Measured{Point: core.Point{BW: s.BWGBs, Latency: s.LatNs}, ReadRatio: s.RdRatio})
		}
	}
	anchor := []core.Point{{BW: unloaded.BWGBs, Latency: unloaded.LatNs}}
	return core.MeasuredFamily(spec.Name, spec.TheoreticalBandwidthGBs(), anchor, mixes)
}

// QuickOptions returns a reduced sweep: three mixes, a coarse pacing ladder
// and short windows. Its only callers outside tests are the benchmark
// module and messperf, whose recorded baselines were measured with it;
// everything else takes its Quick sweep from exp.Sweep. It goes when those
// baselines are regenerated.
func QuickOptions() Options {
	return Options{
		Mixes:   []Mix{{StorePercent: 0}, {StorePercent: 50}, {StorePercent: 100}},
		PacesNs: []float64{0, 4, 16, 64, 256},
		Warmup:  5 * sim.Microsecond,
		Measure: 15 * sim.Microsecond,
	}
}
