package cpu

import (
	"fmt"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Kernel describes one inner-loop iteration of a workload at cache-line
// granularity: how many distinct arrays are read and written per line-step,
// how much non-memory work accompanies them, and whether the loads form a
// dependence chain. STREAM, LMbench, multichase, the HPCG phases and the
// SPEC-like synthetic suite are all expressed as kernels.
type Kernel struct {
	Name string
	// Loads and Stores are the number of distinct arrays touched per
	// line-step; each contributes one cache-line transaction per step.
	Loads  int
	Stores int
	// ElemsPerLine is the number of loop iterations covered by one line
	// (8 for float64 arrays); it scales the instruction count.
	ElemsPerLine int
	// ALUPerElem is the number of non-memory instructions per element
	// iteration (address arithmetic, FP ops, branch share).
	ALUPerElem int
	// Dependent serializes the kernel on its loads: the next line-step
	// cannot begin until the previous load returns (pointer chase). A
	// dependent kernel is one load per step and no store.
	Dependent bool
	// Random makes every access target a random line of its array (GUPS).
	Random bool
}

// InstrPerStep reports retired instructions per line-step.
func (k Kernel) InstrPerStep() uint64 {
	e := k.ElemsPerLine
	if e == 0 {
		e = 8
	}
	return uint64(e*(k.Loads+k.Stores) + e*k.ALUPerElem)
}

// AppBytesPerStep reports the application-visible bytes moved per line-step
// (the STREAM accounting: one read per load array, one write per store
// array, no RFO amplification).
func (k Kernel) AppBytesPerStep() uint64 {
	return uint64((k.Loads + k.Stores) * mem.LineSize)
}

// Standard kernels.
var (
	// STREAM kernels (McCalpin). ALU counts per element include index
	// arithmetic and the loop-branch share.
	StreamCopy  = Kernel{Name: "STREAM:copy", Loads: 1, Stores: 1, ElemsPerLine: 8, ALUPerElem: 2}
	StreamScale = Kernel{Name: "STREAM:scale", Loads: 1, Stores: 1, ElemsPerLine: 8, ALUPerElem: 3}
	StreamAdd   = Kernel{Name: "STREAM:add", Loads: 2, Stores: 1, ElemsPerLine: 8, ALUPerElem: 3}
	StreamTriad = Kernel{Name: "STREAM:triad", Loads: 2, Stores: 1, ElemsPerLine: 8, ALUPerElem: 4}

	// LMbench lat_mem_rd: one dependent load per line, minimal loop body.
	LMbench = Kernel{Name: "lmbench", Loads: 1, ElemsPerLine: 1, ALUPerElem: 1, Dependent: true, Random: true}
	// Google multichase: dependent chase with a slightly heavier body.
	Multichase = Kernel{Name: "multichase", Loads: 1, ElemsPerLine: 1, ALUPerElem: 3, Dependent: true, Random: true}
)

// coreWidth is the sustained non-memory IPC (superscalar width) of the
// mechanistic core.
const coreWidth = 4

// CoreConfig describes the mechanistic core executing a kernel.
type CoreConfig struct {
	CycleTime sim.Time // core clock period
	// Bases of the arrays used by the kernel; len ≥ Loads+Stores.
	ArrayBases []uint64
	ArrayBytes uint64
	Seed       uint64
}

func (c *CoreConfig) validate(k Kernel) error {
	if c.CycleTime <= 0 {
		return fmt.Errorf("cpu: kernel core needs a positive cycle time")
	}
	if k.Dependent && (k.Loads != 1 || k.Stores != 0) {
		return fmt.Errorf("cpu: dependent kernel %s must be one load and no store, got %d and %d", k.Name, k.Loads, k.Stores)
	}
	if len(c.ArrayBases) < k.Loads+k.Stores {
		return fmt.Errorf("cpu: kernel %s needs %d arrays, got %d", k.Name, k.Loads+k.Stores, len(c.ArrayBases))
	}
	if c.ArrayBytes == 0 || c.ArrayBytes%mem.LineSize != 0 {
		return fmt.Errorf("cpu: array bytes %d must be a positive multiple of the line size", c.ArrayBytes)
	}
	return nil
}

// KernelCore executes a Kernel on one port and measures IPC and application
// bandwidth. The model is mechanistic: non-memory work paces issue at
// coreWidth instructions per cycle; memory transactions overlap with work and
// with each other up to the port's MSHR limit; dependent kernels serialize
// on load completion. This is the level of core fidelity the paper's
// IPC-error experiments require — the experiments vary only the memory
// model underneath.
type KernelCore struct {
	eng    *sim.Engine
	port   *cache.Port
	kernel Kernel
	cfg    CoreConfig

	lines   uint64
	lineIdx uint64
	rng     uint64

	running  bool
	stepOpen bool // a line-step is in progress (guards re-entrant wake-ups)
	nextAt   sim.Time
	asleep   bool           // a pacing wake is queued
	wakeFn   func(sim.Time) // the pacing wake, built once and scheduled again each step

	// Completion callback of a dependent load, allocated once and passed
	// to the port for every step: issuing a line-step captures nothing.
	// Non-dependent operations pass none (see the issue method).
	depDoneFn func(sim.Time)

	// A line-step issues one operation per array, loads before stores:
	// operation i touches array i. nextOp is the first one the open step
	// has not issued yet; Loads+Stores means none is left.
	nextOp int

	startAt sim.Time
	instret uint64
	steps   uint64
	lastAt  sim.Time
}

type pendingOp struct {
	arr     int
	isStore bool
}

// NewKernelCore builds a kernel executor; it panics on config errors.
func NewKernelCore(eng *sim.Engine, port *cache.Port, k Kernel, cfg CoreConfig) *KernelCore {
	if err := cfg.validate(k); err != nil {
		panic(err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x853c49e6748fea9b
	}
	c := &KernelCore{
		eng:    eng,
		port:   port,
		kernel: k,
		cfg:    cfg,
		lines:  cfg.ArrayBytes / mem.LineSize,
		rng:    cfg.Seed,
		nextOp: k.Loads + k.Stores, // no step open yet
	}
	c.wakeFn = func(sim.Time) {
		c.asleep = false
		c.beginStep()
	}
	c.depDoneFn = func(sim.Time) { c.completeStep() }
	return c
}

// Start begins execution. Like the traffic generator, the core listens on
// the port's OnFree hook so that stalls on write-buffer space are released
// when downstream writebacks drain.
func (c *KernelCore) Start() {
	if c.running {
		return
	}
	c.running = true
	c.port.OnFree = func() { c.tryIssue() }
	c.startAt = c.eng.Now()
	c.nextAt = c.eng.Now()
	c.beginStep()
}

// Stop halts execution after in-flight operations complete.
func (c *KernelCore) Stop() { c.running = false }

// ResetStats restarts the measurement window at the current time.
func (c *KernelCore) ResetStats() {
	c.instret = 0
	c.steps = 0
	c.startAt = c.eng.Now()
}

// IPC reports instructions per cycle over the measurement window.
func (c *KernelCore) IPC() float64 {
	elapsed := c.lastAt - c.startAt
	if elapsed <= 0 {
		return 0
	}
	cycles := float64(elapsed) / float64(c.cfg.CycleTime)
	return float64(c.instret) / cycles
}

// Steps reports completed line-steps in the window.
func (c *KernelCore) Steps() uint64 { return c.steps }

// AppBandwidthGBs reports the application-level (STREAM-accounted)
// bandwidth over the window.
func (c *KernelCore) AppBandwidthGBs() float64 {
	elapsed := c.lastAt - c.startAt
	if elapsed <= 0 {
		return 0
	}
	return float64(c.steps*c.kernel.AppBytesPerStep()) / elapsed.Seconds() / 1e9
}

func (c *KernelCore) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *KernelCore) addrFor(arr int) uint64 {
	var line uint64
	if c.kernel.Random {
		line = c.nextRand() % c.lines
	} else {
		line = c.lineIdx % c.lines
	}
	return c.cfg.ArrayBases[arr] + line*mem.LineSize
}

// beginStep queues the memory operations of one line-step and paces by the
// step's non-memory work.
func (c *KernelCore) beginStep() {
	if !c.running {
		return
	}
	k := &c.kernel
	c.stepOpen = true
	c.nextOp = 0
	// Pace on the full instruction count: every instruction, memory ones
	// included, occupies an issue slot, bounding IPC at the core width.
	instr := k.InstrPerStep()
	cycles := (instr + coreWidth - 1) / coreWidth
	c.nextAt = max(c.nextAt, c.eng.Now()) + sim.Time(cycles)*c.cfg.CycleTime
	c.tryIssue()
}

// tryIssue drains the pending ops of the current step as buffers allow,
// then completes the step; a dependent step, whose one op is its load,
// completes when the load returns instead. It is re-entrant: OnFree
// wake-ups may arrive while no step is open, which must be a no-op.
func (c *KernelCore) tryIssue() {
	if !c.running || !c.stepOpen {
		return
	}
	for c.opsPending() {
		op := pendingOp{arr: c.nextOp, isStore: c.nextOp >= c.kernel.Loads}
		if !c.canIssue(op) {
			return // an OnFree wake-up will re-enter
		}
		c.nextOp++
		c.issue(op)
	}
	if !c.kernel.Dependent {
		c.completeStep()
	}
}

// opsPending reports whether the open step still has unissued operations.
func (c *KernelCore) opsPending() bool { return c.nextOp < c.kernel.Loads+c.kernel.Stores }

func (c *KernelCore) canIssue(op pendingOp) bool {
	return c.port.FreeMSHR() && (!op.isStore || c.port.FreeWB())
}

// issue hands one operation to the port.
//
//   - A non-dependent op passes no completion callback, on chip or off.
//     The only thing a resume at its completion could do is un-stall the
//     step, and every false→true transition of canIssue happens inside an
//     MSHR/write-buffer release — which already invokes the port's OnFree
//     hook and re-enters tryIssue. A non-dependent step never rests with
//     all its ops issued (tryIssue completes it at once), so such a resume
//     would always run as a no-op, and the port schedules no event for it.
//
//   - A dependent load, the one op of its step, passes depDoneFn. Off
//     chip the port delivers it. On chip the completion comes back as a
//     timestamp, which the core carries as a *virtual completion time*
//     instead of scheduling depDoneFn at ackAt: the IPC/step accounting is
//     stamped with ackAt now, and the pacing wake is queued for the
//     instant the next step would have begun (max of the pacing deadline and
//     ackAt). The next step's port traffic therefore still issues at
//     exactly the old engine time; only the intermediate completion hop at
//     ackAt disappears whenever the pacing deadline lies beyond it. (When
//     the wake shares a deadline with another component's event, its
//     schedule order can shift relative to the old wake-at-completion — an
//     accepted model-level tie-break; the fig2 determinism gate, which
//     exercises the chaser/generator cores, is unaffected.)
func (c *KernelCore) issue(op pendingOp) {
	addr := c.addrFor(op.arr)
	switch {
	case op.isStore:
		c.port.Store(addr)
	case c.kernel.Dependent:
		if at, onChip := c.port.Load(addr, c.depDoneFn); onChip {
			c.virtualStepComplete(at)
		}
	default:
		c.port.Load(addr, nil)
	}
}

// virtualStepComplete retires a step whose closing dependent load hit on
// chip, without an event at the completion instant: the accounting is
// stamped with the virtual completion time at, and the pacing wake carries
// execution to where the old completion callback would have resumed it.
func (c *KernelCore) virtualStepComplete(at sim.Time) {
	if !c.running || !c.stepOpen {
		return
	}
	c.stepOpen = false
	c.instret += c.kernel.InstrPerStep()
	c.steps++
	c.lineIdx++
	c.lastAt = at
	c.sleep(max(c.nextAt, at))
}

// completeStep retires the step's instructions and schedules the next step
// at the pacing deadline.
func (c *KernelCore) completeStep() {
	if !c.running || !c.stepOpen {
		return
	}
	c.stepOpen = false
	c.instret += c.kernel.InstrPerStep()
	c.steps++
	c.lineIdx++
	c.lastAt = c.eng.Now()
	if c.nextAt > c.eng.Now() {
		c.sleep(c.nextAt)
		return
	}
	c.beginStep()
}

// sleep queues the pacing wake for at, unless one is queued already: after
// a Stop and Start the wake queued before the Stop still stands and begins
// the next step.
func (c *KernelCore) sleep(at sim.Time) {
	if !c.asleep {
		c.asleep = true
		c.eng.Schedule(at, c.wakeFn)
	}
}
