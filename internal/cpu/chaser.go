// Package cpu provides the core-side engines that drive memory traffic:
//
//   - Chaser: the Mess pointer-chase latency probe — dependent back-to-back
//     loads over a random permutation of a large array (Appendix A.1);
//   - Generator: the Mess traffic generator — paced streams of loads and
//     stores over two per-core arrays (Appendix A.2);
//   - KernelCore: a mechanistic core model that executes abstract kernels
//     (STREAM, HPCG phases, SPEC-like mixes) and reports IPC, used by the
//     simulator-accuracy experiments.
//
// All engines are single-goroutine, event-driven and deterministic.
package cpu

import (
	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Chaser is the pointer-chase benchmark: a chain of dependent loads, each
// targeting a pseudo-random cache line of a large array. Because each load's
// address depends on the previous load's data, execution is fully
// serialized, so mean latency = elapsed / hops — exactly the measurement
// methodology of the paper's Listing 1.
type Chaser struct {
	eng  *sim.Engine
	port *cache.Port

	base  uint64
	lines uint64
	mult  uint64
	inc   uint64
	cur   uint64

	hopOverhead sim.Time // core-side work per hop (loop counter, branch)

	running bool
	issued  sim.Time // issue time of the single in-flight load

	// The chase is fully serialized, so the hop and completion callbacks
	// are allocated once and reused for every hop.
	hopFn  func(sim.Time)
	doneFn func(sim.Time)

	latSum sim.Time
	latN   uint64
}

// NewChaser builds a chaser over `lines` cache lines starting at base.
// The traversal is a full-period affine walk over line indices
// (next = (mult·cur + inc) mod lines with lines a power of two), which
// visits every line exactly once in a pseudo-random order — the model
// equivalent of the random-cycle initialization of the Mess pointer-chase
// array. seed varies the starting position.
func NewChaser(eng *sim.Engine, port *cache.Port, base uint64, lines uint64, seed uint64) *Chaser {
	if lines == 0 || lines&(lines-1) != 0 {
		panic("cpu: chaser lines must be a nonzero power of two")
	}
	c := &Chaser{
		eng:   eng,
		port:  port,
		base:  base,
		lines: lines,
		// Full-period LCG over 2^k: multiplier ≡ 1 (mod 4), odd increment.
		mult:        1664525,
		inc:         1013904223 | 1,
		cur:         seed % lines,
		hopOverhead: sim.Nanosecond / 2,
	}
	c.hopFn = func(sim.Time) { c.hop() }
	c.doneFn = c.hopDone
	return c
}

// Start begins the chase. It is idempotent.
func (c *Chaser) Start() {
	if c.running {
		return
	}
	c.running = true
	c.hop()
}

// Stop halts the chase after the in-flight load completes.
func (c *Chaser) Stop() { c.running = false }

func (c *Chaser) hop() {
	if !c.running {
		return
	}
	c.cur = (c.mult*c.cur + c.inc) % c.lines
	addr := c.base + c.cur*mem.LineSize
	c.issued = c.eng.Now()
	if at, onChip := c.port.Load(addr, c.doneFn); onChip {
		// On-chip hit: the chase depends only on the completion timestamp,
		// so the hop is consumed inline — hopDone schedules the next hop
		// directly at at+overhead, with no delivery event in between.
		c.hopDone(at)
	}
}

// hopDone records the load-to-use latency and schedules the next hop.
func (c *Chaser) hopDone(at sim.Time) {
	c.latSum += at - c.issued
	c.latN++
	if !c.running {
		return
	}
	c.eng.Schedule(at+c.hopOverhead, c.hopFn)
}

// ResetStats clears the latency accumulators (after warmup).
func (c *Chaser) ResetStats() { c.latSum, c.latN = 0, 0 }

// MeanLatency reports the average load-to-use latency observed since the
// last reset, and the number of samples.
func (c *Chaser) MeanLatency() (sim.Time, uint64) {
	if c.latN == 0 {
		return 0, 0
	}
	return c.latSum / sim.Time(c.latN), c.latN
}
