// Package perfload holds the canonical kernel and model performance
// workloads, shared by the root -bench=Kernel micro-benchmarks and the
// cmd/messperf trajectory runner so both always measure the same thing:
// a tuning change here moves the regression gate and BENCH_sim.json
// together, never one without the other.
package perfload

import (
	"fmt"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// ScheduleFire drives n schedule+fire pairs through 8 self-perpetuating
// event chains with short DDR-like deltas — the pattern the DRAM command
// scheduler and pacing loops generate. The headline kernel number.
func ScheduleFire(eng *sim.Engine, n int) {
	fired := 0
	var tick func(sim.Time)
	tick = func(sim.Time) {
		fired++
		if fired < n {
			eng.Schedule(eng.Now()+3*sim.Nanosecond+sim.Time(fired%7)*100, tick)
		}
	}
	for i := 0; i < 8 && i < n; i++ {
		eng.Schedule(eng.Now()+sim.Time(i)*sim.Nanosecond, tick)
	}
	eng.Run()
}

// WheelDense drives n events through 512 concurrent chains — a crowded
// wheel with many occupied buckets.
func WheelDense(eng *sim.Engine, n int) {
	fired := 0
	var tick func(sim.Time)
	tick = func(sim.Time) {
		fired++
		if fired < n {
			eng.Schedule(eng.Now()+sim.Time(500+fired%97*13), tick)
		}
	}
	for i := 0; i < 512 && i < n; i++ {
		eng.Schedule(eng.Now()+sim.Time(i), tick)
	}
	eng.Run()
}

// FarHorizon drives n events whose deadlines all land beyond the timer
// wheel horizon, exercising the overflow heap and its cascade back in.
func FarHorizon(eng *sim.Engine, n int) {
	fired := 0
	far := 2 * sim.Microsecond // ≫ the 262 ns wheel horizon
	var tick func(sim.Time)
	tick = func(sim.Time) {
		fired++
		if fired < n {
			eng.Schedule(eng.Now()+far+sim.Time(fired%13)*1000, tick)
		}
	}
	for i := 0; i < 8 && i < n; i++ {
		eng.Schedule(eng.Now()+sim.Time(i), tick)
	}
	eng.Run()
}

// Cancel drives n schedules that their owner abandons: each fires as a
// no-op, which is how a component drops a wake-up it no longer wants (the
// kernel has no cancellation). Deadlines lie 1–3 ns out, spread over a few
// wheel buckets, with periodic drains. It stays for the benchmark's
// sim.cancel_ns.
func Cancel(eng *sim.Engine, n int) {
	nop := func(sim.Time) {}
	for i := 0; i < n; i++ {
		eng.Schedule(eng.Now()+sim.Nanosecond+sim.Time(i%2001), nop)
		if i%1024 == 1023 {
			eng.RunUntil(eng.Now() + 300*sim.Nanosecond)
		}
	}
	eng.Run()
}

// TimerRearm drives n fire+reschedule cycles of one pacing component: its
// wake callback is built once and, at the end of each fire, schedules
// itself again. The kernel has no timer type; this is the pattern every
// steady-rate component follows instead (cpu.Generator's and
// cpu.KernelCore's pacing wakes, profile.Sampler, the CXL injector). It
// keeps its name for the benchmark's sim.timer_rearm_ns.
func TimerRearm(eng *sim.Engine, n int) {
	fired := 0
	var wake func(sim.Time)
	wake = func(now sim.Time) {
		fired++
		if fired < n {
			eng.Schedule(now+sim.Time(200+fired%31), wake)
		}
	}
	eng.Schedule(eng.Now()+1, wake)
	eng.Run()
}

// LoopPattern selects the address and operation stream of the closed-loop
// driver. The reference pattern alone tracks the scheduler only on its
// friendliest terms; the additional patterns pin the row-miss-dominated
// and the mixed read/write (drain-episode) regimes in the BENCH_sim.json
// trajectory, where scheduler regressions hide from a single workload.
type LoopPattern uint8

const (
	// PatternReference is the historical workload: 48 read streams with a
	// row-buffer-hostile inter-stream stride, sequential within a stream.
	PatternReference LoopPattern = iota
	// PatternRandom is a mapper-defeating xorshift walk over a 16 GiB
	// span: essentially every access activates a new row in a pseudo-
	// random bank — the all-miss regime where the pick scan finds no hits
	// and the activate/refresh bookkeeping dominates.
	PatternRandom
	// PatternMixed issues the reference walk at a 2:1 read/write ratio;
	// the posted writes build the controller's write queue to its
	// watermark and force periodic drain episodes with bus turnarounds.
	PatternMixed
)

func (p LoopPattern) String() string {
	switch p {
	case PatternRandom:
		return "random"
	case PatternMixed:
		return "mixed"
	default:
		return "reference"
	}
}

// ClosedLoopDriver issues requests against a memory backend with up to 256
// outstanding, each completion re-issuing — the saturation pattern of the
// model throughput measurements. Requests ride the driver's pool with one
// stored completion callback, so the steady-state loop is the 0 allocs/op
// pattern the BENCH_sim.json allocs_per_op column tracks. The driver is
// reusable: repeated Run calls keep the pool, engine and backend warm,
// which is how the steady-state allocation tests and the messperf warmup
// measure the sustained path rather than cold-start growth.
type ClosedLoopDriver struct {
	eng     *sim.Engine
	backend mem.Backend
	pool    *mem.RequestPool
	done    mem.DoneFunc
	pattern LoopPattern

	// Timed form (NewTimedClosedLoop): every issue reaches the backend
	// after hop.
	timed mem.TimedBackend
	hop   sim.Time

	line      uint64
	rng       uint64
	completed int
	target    int
}

// NewClosedLoopPattern builds a driver running the given pattern.
func NewClosedLoopPattern(eng *sim.Engine, backend mem.Backend, pattern LoopPattern) *ClosedLoopDriver {
	d := &ClosedLoopDriver{
		eng:     eng,
		backend: backend,
		pool:    mem.NewRequestPool(),
		pattern: pattern,
		rng:     0x9e3779b97f4a7c15,
	}
	d.done = func(sim.Time, *mem.Request) {
		d.completed++
		if d.completed < d.target {
			d.issue()
		}
	}
	return d
}

// NewTimedClosedLoop builds a driver that issues through a timed backend:
// hop is the core→controller flight time of every request, the role the
// cache's outbound on-chip hop plays in the benchmark topology.
func NewTimedClosedLoop(eng *sim.Engine, backend mem.TimedBackend, hop sim.Time, pattern LoopPattern) *ClosedLoopDriver {
	d := NewClosedLoopPattern(eng, nil, pattern)
	d.timed, d.hop = backend, hop
	return d
}

func (d *ClosedLoopDriver) issue() {
	// The reference walk is shared: random replaces the address, mixed
	// replaces every third op — so the patterns stay variants of one
	// stream rather than three drifting copies.
	addr := (d.line%48)*(1<<28+97*64) + (d.line/48)*64
	op := mem.Read
	switch d.pattern {
	case PatternRandom:
		d.rng ^= d.rng << 13
		d.rng ^= d.rng >> 7
		d.rng ^= d.rng << 17
		addr = d.rng % (16 << 30) &^ 63
	case PatternMixed:
		if d.line%3 == 2 {
			op = mem.Write
		}
	}
	d.line++
	req := d.pool.Get(addr, op, d.done)
	if d.timed != nil {
		d.timed.AccessAt(req, d.eng.Now()+d.hop)
		return
	}
	d.backend.Access(req)
}

// Run drives n requests to completion and drains the engine. A backend
// that loses a completion would drain the engine early with requests
// unfinished; that is a lifecycle bug, not a measurement, so Run panics
// rather than let throughput numbers silently inflate.
func (d *ClosedLoopDriver) Run(n int) {
	d.target = d.completed + n
	for i := 0; i < 256 && i < n; i++ {
		d.issue()
	}
	d.eng.Run()
	if d.completed < d.target {
		panic(fmt.Sprintf("perfload: backend completed %d of %d requests (lost completion?)",
			d.completed-(d.target-n), n))
	}
}

// Pool exposes the driver's request pool (tests assert Live() == 0 after a
// drained run).
func (d *ClosedLoopDriver) Pool() *mem.RequestPool { return d.pool }
