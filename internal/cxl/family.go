package cxl

import (
	"context"
	"runtime"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/sim"
)

// SweepOptions configure the direct-drive characterization of a backend —
// the model equivalent of running the manufacturer's SystemC testbench to
// obtain device-level bandwidth–latency curves (Fig. 14a).
type SweepOptions struct {
	// WriteFractions lists the traffic compositions to sweep; each value
	// is the fraction of memory traffic that is writes. The CXL curves
	// span 0 (100%-read) to 1 (100%-write), unlike the host-side Mess
	// sweep which cannot exceed 50% writes without streaming stores.
	WriteFractions []float64
	// RatesGBs is the open-loop injection sweep.
	RatesGBs []float64
	// Warmup and Measure window durations.
	Warmup  sim.Time
	Measure sim.Time
	// Parallelism bounds concurrent points. Default: GOMAXPROCS.
	Parallelism int
}

func (o *SweepOptions) withDefaults(maxGBs float64) SweepOptions {
	out := *o
	if len(out.WriteFractions) == 0 {
		out.WriteFractions = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	if len(out.RatesGBs) == 0 {
		for f := 0.04; f <= 1.301; f += 0.06 {
			out.RatesGBs = append(out.RatesGBs, f*maxGBs)
		}
	}
	if out.Warmup == 0 {
		out.Warmup = 20 * sim.Microsecond
	}
	if out.Measure == 0 {
		out.Measure = 60 * sim.Microsecond
	}
	if out.Parallelism == 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	return out
}

// MeasureFamily characterizes a backend by open-loop injection: for each
// (write fraction, rate) point it injects deterministic-spaced traffic and
// measures the achieved bandwidth and the round-trip latency of a
// concurrent dependent-read probe. Parallelism workers share the points
// (par.Workers); each owns one engine and one request pool for the whole
// sweep and resets them between points (the backend is the factory's and is
// built per point).
func MeasureFamily(makeBackend mem.BackendFactory, label string, theoreticalGBs float64, opt SweepOptions) *core.Family {
	o := opt.withDefaults(theoreticalGBs)
	nr := len(o.RatesGBs)
	points := make([]core.Measured, len(o.WriteFractions)*nr) // by wfIdx*nr + rateIdx
	// A nonsensical Parallelism must not skip the sweep.
	workers := max(1, min(o.Parallelism, len(points)))
	engs, pools := make([]*sim.Engine, workers), make([]*mem.RequestPool, workers)
	// No point fails and the kept signature supplies no context to end.
	_ = par.Workers(context.TODO(), workers, len(points), func(w, i int) error {
		if engs[w] == nil {
			engs[w], pools[w] = sim.New(), mem.NewRequestPool()
		}
		points[i] = measureDevicePoint(engs[w], pools[w], makeBackend, o.WriteFractions[i/nr], o.RatesGBs[i%nr], o)
		return nil
	})

	mixes := make([][]core.Measured, len(o.WriteFractions))
	for wi := range mixes {
		for _, p := range points[wi*nr : (wi+1)*nr] {
			if p.Latency > 0 { // 0: the probe recorded nothing
				mixes[wi] = append(mixes[wi], p)
			}
		}
	}
	return core.MeasuredFamily(label, theoreticalGBs, nil, mixes)
}

// measureDevicePoint injects `rate` GB/s with the given write fraction on
// the caller's engine and pool, new or left over from an earlier point. The
// point's latency is 0 when the probe recorded nothing.
func measureDevicePoint(eng *sim.Engine, pool *mem.RequestPool, makeBackend mem.BackendFactory, writeFrac, rate float64, o SweepOptions) core.Measured {
	eng.Reset()
	pool.Reset()
	backend := makeBackend(eng)
	counting := mem.NewCounting(backend)

	// Open-loop injector: deterministic spacing, Bresenham write mix,
	// sequential addresses across several streams. Cap outstanding to
	// bound queue growth past saturation. The fixed injection rate rides
	// on one tick callback that schedules itself again after each
	// injection (one pooled event) and the requests on a point-local pool
	// (records recycled on completion).
	interval := sim.FromNanoseconds(float64(mem.LineSize) / rate)
	const maxOutstanding = 256
	outstanding := 0
	var line uint64
	acc := 0.0
	deadline := o.Warmup + o.Measure
	injectDone := func(sim.Time, *mem.Request) { outstanding-- }
	injectOne := func() {
		if outstanding < maxOutstanding {
			acc += writeFrac
			op := mem.Read
			if acc >= 1 {
				acc--
				op = mem.Write
			}
			addr := (line%8)*(1<<28+16<<10) + (line/8)*mem.LineSize
			line++
			outstanding++
			counting.Access(pool.Get(addr, op, injectDone))
		}
	}
	var tick func(sim.Time)
	tick = func(now sim.Time) {
		if now >= deadline {
			return
		}
		injectOne()
		eng.Schedule(now+interval, tick)
	}
	injectOne()
	eng.Schedule(eng.Now()+interval, tick)

	// Latency probe: dependent reads in their own address region. The probe
	// and completion callbacks are allocated once; the single in-flight
	// probe's issue time rides in probeStart.
	var probeLatSum sim.Time
	var probeN uint64
	var probeStart sim.Time
	probeLine := uint64(0)
	var probe func(sim.Time)
	probeDone := func(at sim.Time, _ *mem.Request) {
		if probeStart >= o.Warmup {
			probeLatSum += at - probeStart
			probeN++
		}
		eng.Schedule(eng.Now()+sim.Nanosecond, probe)
	}
	probe = func(now sim.Time) {
		if now >= deadline {
			return
		}
		probeLine = probeLine*1664525 + 1013904223
		addr := uint64(1)<<41 + (probeLine%(1<<18))*mem.LineSize
		probeStart = now
		counting.Access(pool.Get(addr, mem.Read, probeDone))
	}
	probe(eng.Now())

	eng.RunUntil(o.Warmup)
	c0 := counting.Snapshot()
	eng.RunUntil(deadline)
	// Drain stragglers for a bounded time so probe callbacks settle.
	eng.RunUntil(deadline + 5*sim.Microsecond)
	c1 := counting.Snapshot()

	delta := c1.Sub(c0)
	p := core.Measured{Point: core.Point{BW: delta.BandwidthGBs(o.Measure)}, ReadRatio: delta.ReadRatio()}
	if probeN > 0 {
		p.Latency = (probeLatSum / sim.Time(probeN)).Nanoseconds()
	}
	return p
}

// Family measures the default expander's curves.
func Family(opt SweepOptions) *core.Family {
	cfg := Default()
	return MeasureFamily(func(eng *sim.Engine) mem.Backend {
		return New(eng, cfg)
	}, "CXL memory expander", cfg.MaxTheoreticalGBs(), opt)
}
