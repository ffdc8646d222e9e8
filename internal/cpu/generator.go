package cpu

import (
	"fmt"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// GenConfig parameterizes one traffic-generator core (the Mess workload
// generator of Appendix A.2).
type GenConfig struct {
	// StorePercent is the fraction of kernel memory instructions that are
	// stores, 0..100. With a write-allocate hierarchy, s% stores yields
	// memory traffic with s/(100+s) writes — the 100%-store kernel produces
	// 50%-read/50%-write traffic, exactly as Sec. II-A describes.
	StorePercent int
	// NonTemporal switches stores to streaming (non-temporal) stores that
	// write directly to memory without an RFO; this is how the benchmark
	// reaches memory write ratios above 50% (footnote 1 of the paper).
	NonTemporal bool
	// PacePerOp inserts this much delay before each memory operation — the
	// model equivalent of the `nop` loop between load/store groups. Zero
	// means maximum pressure.
	PacePerOp sim.Time

	LoadBase   uint64 // base address of the load array
	StoreBase  uint64 // base address of the store array
	ArrayBytes uint64 // length of each array; the stream wraps around
}

// issueInterval is the minimum spacing between memory instructions imposed
// by the core pipeline itself (≈ 1-2 cycles per vmovupd).
const issueInterval = sim.Nanosecond / 2

func (c *GenConfig) validate() error {
	if c.StorePercent < 0 || c.StorePercent > 100 {
		return fmt.Errorf("cpu: store percent %d outside [0,100]", c.StorePercent)
	}
	if c.ArrayBytes == 0 || c.ArrayBytes%mem.LineSize != 0 {
		return fmt.Errorf("cpu: array bytes %d must be a positive multiple of the line size", c.ArrayBytes)
	}
	return nil
}

// Generator streams loads and stores from one core, paced by PacePerOp and
// bounded by the port's MSHR / write-buffer limits. The load/store
// interleaving follows a Bresenham pattern over a 100-op period, matching
// the 2%-step kernel mixes of the assembly implementation.
type Generator struct {
	eng  *sim.Engine
	port *cache.Port
	cfg  GenConfig

	pattern []bool // true = store, len 100
	pi      int

	loadLine  uint64
	storeLine uint64
	lines     uint64

	nextAt  sim.Time
	running bool
	asleep  bool           // a pacing wake is queued
	wakeFn  func(sim.Time) // the pacing wake, built once and scheduled again each stall

	ops uint64
}

// NewGenerator builds a generator. It panics on invalid configuration
// (generator configs are produced by the benchmark sweep, not user input).
func NewGenerator(eng *sim.Engine, port *cache.Port, cfg GenConfig) *Generator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		eng:   eng,
		port:  port,
		cfg:   cfg,
		lines: cfg.ArrayBytes / mem.LineSize,
	}
	g.pattern = mixPattern(cfg.StorePercent)
	g.wakeFn = func(sim.Time) {
		g.asleep = false
		g.tryIssue()
	}
	return g
}

// mixPattern spreads `storePercent` stores evenly over a 100-op period.
func mixPattern(storePercent int) []bool {
	p := make([]bool, 100)
	acc := 0
	for i := range p {
		acc += storePercent
		if acc >= 100 {
			acc -= 100
			p[i] = true
		}
	}
	return p
}

// Start begins traffic generation. The generator registers itself as the
// port's resource-release listener: a stalled issue loop can be unblocked
// by a writeback draining far downstream, which surfaces only as OnFree.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	g.port.OnFree = g.tryIssue
	g.nextAt = g.eng.Now()
	g.tryIssue()
}

// Stop halts the generator; in-flight requests complete normally.
func (g *Generator) Stop() { g.running = false }

// tryIssue issues as many operations as pacing and buffer space allow, then
// arranges to be woken by either its pacing wake or a completion.
func (g *Generator) tryIssue() {
	for g.running {
		now := g.eng.Now()
		if now < g.nextAt {
			// Pacing stall: sleep until the next issue slot, unless a
			// wake is already queued for it (an OnFree re-entry during
			// the stall must not queue a second).
			if !g.asleep {
				g.asleep = true
				g.eng.Schedule(g.nextAt, g.wakeFn)
			}
			return
		}
		isStore := g.pattern[g.pi]
		if !g.canIssue(isStore) {
			// A completion callback will re-enter tryIssue.
			return
		}
		g.issueOne(isStore)
		g.pi = (g.pi + 1) % len(g.pattern)
		g.ops++
		g.nextAt = max(g.nextAt, now) + issueInterval + g.cfg.PacePerOp
	}
}

func (g *Generator) canIssue(isStore bool) bool {
	switch {
	case !isStore:
		return g.port.FreeMSHR()
	case g.cfg.NonTemporal:
		return g.port.FreeWB()
	default:
		return g.port.FreeMSHR() && g.port.FreeWB()
	}
}

func (g *Generator) issueOne(isStore bool) {
	// Completion wake-ups ride on the port's OnFree hook.
	if !isStore {
		addr := g.cfg.LoadBase + g.nextOffset(&g.loadLine)
		g.port.Load(addr, nil)
		return
	}
	addr := g.cfg.StoreBase + g.nextOffset(&g.storeLine)
	if g.cfg.NonTemporal {
		g.port.StoreNT(addr, nil)
		return
	}
	g.port.Store(addr, nil)
}

// nextOffset advances the given stream counter and returns the byte offset
// within the array: the generator walks its arrays line by line and wraps.
func (g *Generator) nextOffset(counter *uint64) uint64 {
	i := *counter
	*counter++
	return (i % g.lines) * mem.LineSize
}
