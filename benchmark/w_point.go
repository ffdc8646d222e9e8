package main

import (
	"context"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

// shardPoint is one fully loaded sweep point of the point-sharded list.
type shardPoint struct {
	id   int // position in the canonical (unshuffled) list
	spec platform.Spec
	mix  bench.Mix
	pace float64
}

// pointWorkload is point-sharded: single sweep points, each run on a
// two-engine shard group. It is the one workload where sim.ShardGroup's
// barrier does the work, and sharding is driven only the way users drive
// it: through bench.Options.Shards.
type pointWorkload struct {
	points  []shardPoint // seed order
	opt     bench.Options
	sharded []bench.Sample // last iteration, by id
	hostMs  []float64      // last iteration's per-point host time, by id

	serialMs []float64 // filled by verify
}

func setupPointSharded(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "point-sharded")
	// An 8- and a 16-channel platform, cores cut to 12 so a point stays
	// Quick-sized (the cmd/messperf fig4_point configuration).
	zen, grav := platform.Zen2(), platform.Graviton3()
	zen.Cores, grav.Cores = 12, 12
	var canon []shardPoint
	for _, spec := range []platform.Spec{zen, grav} {
		for s := 0; s <= 100; s += 20 {
			for _, pace := range []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256} {
				canon = append(canon, shardPoint{spec: spec, mix: bench.Mix{StorePercent: s}, pace: pace})
			}
		}
	}
	canon = thin(canon, cfg.scaled(len(canon), 4))
	for i := range canon {
		canon[i].id = i
	}
	opt := bench.QuickOptions()
	opt.Parallelism = 1
	opt.Shards = 2
	return &pointWorkload{
		points: shuffled(r, canon), opt: opt,
		sharded: make([]bench.Sample, len(canon)), hostMs: make([]float64, len(canon)),
	}, nil
}

func (w *pointWorkload) iterate(s scope) iterResult {
	var res iterResult
	opt := w.opt
	if s.traced() {
		// Counters only: with a tracer attached every barrier window of
		// every point would become a span and flood the trace buffer.
		opt.Telemetry = &telemetry.Set{Metrics: s.tel.Registry()}
	}
	for _, p := range w.points {
		var smp bench.Sample
		var err error
		t0 := time.Now()
		s.span("bench", "point", func(scope) { smp, err = bench.MeasurePoint(p.spec, opt, p.mix, p.pace) })
		w.hostMs[p.id] = float64(time.Since(t0).Nanoseconds()) / 1e6
		res.check(err == nil, "%s %v pace %g: %v", p.spec.Name, p.mix, p.pace, err)
		w.sharded[p.id] = smp
		res.ops++
	}
	d := newDigester()
	for _, smp := range w.sharded {
		d.add("%+v\n", smp)
	}
	res.digest = d.sum()
	return res
}

// verify runs every point's serial twin, untimed: a sharded point must
// reproduce the single-engine sample bit for bit.
func (w *pointWorkload) verify() iterResult {
	var res iterResult
	serial := w.opt
	serial.Shards = 0
	w.serialMs = make([]float64, len(w.points))
	for _, p := range w.points {
		var smp bench.Sample
		var err error
		w.serialMs[p.id] = timeMs(func() { smp, err = bench.MeasurePoint(p.spec, serial, p.mix, p.pace) })
		res.check(err == nil && smp == w.sharded[p.id],
			"%s %v pace %g: sharded sample differs from serial", p.spec.Name, p.mix, p.pace)
	}
	return res
}

func (w *pointWorkload) close() error { return nil }

func (w *pointWorkload) layers(t *tracedRun, m layerMetrics) {
	m["bench.points"] = float64(len(w.points))
	m["bench.point_ms_p50"] = median(w.hostMs)
	m["bench.point_ms_p90"] = percentile(w.hostMs, 90)
	m["sim.shard.serial_point_ms"] = median(w.serialMs)
	// Base: the serial twin. Below 1 the sharded point is the slower one.
	m["sim.shard.speedup_x"] = median(w.serialMs) / median(w.hostMs)

	// Barrier statistics come from the sweep harness's counters, so they
	// are read off one small sharded sweep per platform.
	reg := telemetry.NewRegistry()
	opt := w.opt
	opt.Telemetry = &telemetry.Set{Metrics: reg}
	opt.Mixes = []bench.Mix{{StorePercent: 0}, {StorePercent: 60}}
	opt.PacesNs = []float64{0, 16}
	var simNs float64
	seen := map[string]bool{}
	for _, p := range w.points {
		if seen[p.spec.Name] {
			continue
		}
		seen[p.spec.Name] = true
		if _, err := bench.RunContext(context.Background(), p.spec, opt); err != nil {
			return
		}
		simNs += 5 * (opt.Warmup + opt.Measure).Nanoseconds()
	}
	snap := reg.Snapshot()
	m["sim.shard.windows"] = snap["mess_sim_windows_total"]
	m["sim.shard.messages"] = snap["mess_sim_messages_total"]
	m["sim.shard.spins"] = snap["mess_sim_barrier_spins_total"]
	m["sim.shard.yields"] = snap["mess_sim_barrier_yields_total"]
	m["sim.shard.parks"] = snap["mess_sim_barrier_parks_total"]
	if windows := snap["mess_sim_windows_total"]; windows > 0 {
		m["sim.shard.avg_window_ns"] = simNs / windows
	}
}
