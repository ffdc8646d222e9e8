package main

import (
	"strings"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/messsim"
	"github.com/mess-sim/mess/internal/perfload"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// The calibrations below price layers that no call boundary separates:
// the event kernel, the request pool, the DRAM decide path and the CPU
// side all run inside one bench point. Each drives the layer alone with
// the repository's canonical loads (internal/perfload, shared with
// cmd/messperf) or substitutes a layer and takes the difference.

const (
	kernelEvents = 1_000_000
	loopRequests = 200_000
	loopWarm     = 50_000
	calibReps    = 3
)

// sweepLayers reads what the program's own sweep and point spans say about
// the traced iterations: simulated events, point times, worker use.
func sweepLayers(t *tracedRun, m layerMetrics) {
	var events, points, sweepNs float64
	var pointMs []float64
	for _, p := range t.prog {
		if p.proc != "bench" {
			continue
		}
		switch {
		case strings.HasPrefix(p.name, "sweep "):
			events += argNum(p.args, "events")
			points += argNum(p.args, "points")
			sweepNs += float64(p.dur)
		case strings.HasPrefix(p.name, "point "):
			pointMs = append(pointMs, float64(p.dur)/1e6)
		}
	}
	n := float64(t.iters)
	m["sim.events"] = events / n
	m["bench.points"] = points / n
	if len(pointMs) == 0 || events == 0 {
		return
	}
	m["bench.point_ms_p50"] = median(pointMs)
	m["bench.point_ms_p90"] = percentile(pointMs, 90)
	m["sim.host_ns_per_event"] = sum(pointMs) * 1e6 / events
	// Two workers: 1 means both simulated points for the whole sweep.
	m["bench.parallel_eff"] = sum(pointMs) * 1e6 / (2 * sweepNs)
}

// kernelLayers times the event kernel alone on the five perfload kernels.
func kernelLayers(m layerMetrics) {
	for name, load := range map[string]func(*sim.Engine, int){
		"sim.schedule_fire_ns": perfload.ScheduleFire,
		"sim.wheel_dense_ns":   perfload.WheelDense,
		"sim.far_horizon_ns":   perfload.FarHorizon,
		"sim.cancel_ns":        perfload.Cancel,
		"sim.timer_rearm_ns":   perfload.TimerRearm,
	} {
		eng := sim.New()
		load(eng, kernelEvents/8) // grow the pool, buckets and overflow heap first
		var ns []float64
		for i := 0; i < calibReps; i++ {
			ns = append(ns, nsPer(kernelEvents, func() { load(eng, kernelEvents) }))
		}
		m[name] = median(ns)
	}
}

// poolLayers times one request's pool round trip: Get, then Complete,
// which runs the callback and releases the record.
func poolLayers(m layerMetrics) {
	pool := mem.NewRequestPool()
	done := func(sim.Time, *mem.Request) {}
	cycle := func() {
		for i := 0; i < kernelEvents; i++ {
			pool.Get(uint64(i)*64, mem.Read, done).Complete(sim.Time(i))
		}
	}
	cycle()
	var ns []float64
	for i := 0; i < calibReps; i++ {
		ns = append(ns, nsPer(kernelEvents, cycle))
	}
	m["mem.pool_cycle_ns"] = median(ns)
	m["mem.allocs_per_cycle"] = mallocsPer(kernelEvents, cycle)
}

// closedLoop reports host ns and allocations per request of perfload's
// saturating closed loop against the backend mk builds.
func closedLoop(mk func(eng *sim.Engine) *perfload.ClosedLoopDriver) (ns, allocs float64) {
	drv := mk(sim.New())
	drv.Run(loopWarm)
	var all []float64
	for i := 0; i < calibReps; i++ {
		all = append(all, nsPer(loopRequests, func() { drv.Run(loopRequests) }))
	}
	return median(all), mallocsPer(loopRequests, func() { drv.Run(loopRequests) })
}

func dramClosedLoop(spec platform.Spec, pattern perfload.LoopPattern) (ns, allocs float64) {
	return closedLoop(func(eng *sim.Engine) *perfload.ClosedLoopDriver {
		return perfload.NewClosedLoopPattern(eng, dram.New(eng, spec.DRAM), pattern)
	})
}

func messClosedLoop(fam *core.Family) (ns, allocs float64) {
	return closedLoop(func(eng *sim.Engine) *perfload.ClosedLoopDriver {
		return perfload.NewClosedLoopPattern(eng, messsim.New(eng, messsim.Config{Family: fam}), perfload.PatternReference)
	})
}

func cxlClosedLoop(spec platform.Spec) float64 {
	hop := spec.CacheConfig().OnChipLatency / 2
	ns, _ := closedLoop(func(eng *sim.Engine) *perfload.ClosedLoopDriver {
		dev := cxl.New(eng, cxl.Default())
		return perfload.NewTimedClosedLoop(eng, &mem.TimedOn{Eng: eng, Inner: dev}, hop, perfload.PatternReference)
	})
	return ns
}

// pointCost times one fully loaded sweep point (pace 0) and counts the
// requests its backend completed, warm-up included.
func pointCost(spec platform.Spec, opt bench.Options, mix bench.Mix) (hostNs, reqs float64, ok bool) {
	opt.Parallelism = 1
	var all []float64
	var smp bench.Sample
	for i := 0; i < calibReps; i++ {
		var err error
		all = append(all, 1e6*timeMs(func() { smp, err = bench.MeasurePoint(spec, opt, mix, 0) }))
		if err != nil {
			return 0, 0, false
		}
	}
	window := (opt.Warmup + opt.Measure).Nanoseconds()
	return median(all), smp.BWGBs * window / mem.LineSize, true
}

// frontendNsPerReq decomposes a sweep point by swapping the memory model:
// the same point on memmodel's fixed-latency backend runs cores, caches
// and kernel but no DRAM. An unthrottled backend completes more requests
// per simulated window, so points are compared per completed request,
// never as raw times:
//
//	frontend.ns_per_req = fixed-backend host time / fixed-backend requests
//	dram.point_share    = 1 − frontend.ns_per_req × detailed requests / detailed host time
func frontendNsPerReq(spec platform.Spec, opt bench.Options, mix bench.Mix) (float64, bool) {
	opt.Backend = func(eng *sim.Engine) mem.Backend {
		return memmodel.NewFixed(eng, sim.FromNanoseconds(spec.UnloadedLatencyNs-spec.OnChipLatency.Nanoseconds()))
	}
	hostNs, reqs, ok := pointCost(spec, opt, mix)
	if !ok || reqs == 0 {
		return 0, false
	}
	return hostNs / reqs, true
}

// csvLayers times the curve CSV codec on the given families.
func csvLayers(m layerMetrics, fams []*core.Family) {
	var raw []string
	var bytesTotal int
	writeMs := timeMs(func() {
		for _, f := range fams {
			raw = append(raw, familyCSV(f))
		}
	})
	readMs := timeMs(func() {
		for _, r := range raw {
			bytesTotal += len(r)
			if _, err := core.ReadCSV(strings.NewReader(r)); err != nil {
				return
			}
		}
	})
	mb := float64(bytesTotal) / 1e6
	m["core.csv_write_mb_s"] = mb / (writeMs / 1e3)
	m["core.csv_read_mb_s"] = mb / (readMs / 1e3)
	m["core.csv_bytes_per_family"] = float64(bytesTotal) / float64(len(fams))
}

// interpLayer times the curve latency lookup, the Mess simulator's inner
// step, across the family's ratio and bandwidth range.
func interpLayer(m layerMetrics, fam *core.Family) {
	const lookups = 1_000_000
	maxBW := fam.MaxBWAt(1)
	var sink float64
	m["core.interp_ns"] = nsPer(lookups, func() {
		for i := 0; i < lookups; i++ {
			ratio := 0.5 + 0.5*float64(i%64)/64
			sink += fam.LatencyAt(ratio, maxBW*float64(i%97)/97)
		}
	})
	if sink < 0 {
		m["core.interp_ns"] = 0 // keeps the loop's result live
	}
}
