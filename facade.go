package mess

import (
	"io"

	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/messsim"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
	"github.com/mess-sim/mess/internal/workloads"
)

// The Mess simulator, and what it takes to put it (or any model) under a
// CPU model: an engine to run on and the memory interface to drive it by.
type (
	// Engine is the deterministic discrete-event kernel every timed model
	// runs on. Engines are single-goroutine: one per simulation.
	Engine = sim.Engine
	// SimTime is a simulation timestamp in picoseconds.
	SimTime = sim.Time
	// Simulator is the Mess analytical memory simulator: a feedback
	// controller over a curve family, usable as a memory backend.
	Simulator = messsim.Simulator
	// SimulatorConfig configures it; Family is the one required field.
	SimulatorConfig = messsim.Config
	// MemBackend services memory requests.
	MemBackend = mem.Backend
	// MemRequest is one memory transaction. The issuer hands it to a
	// backend's Access and the backend completes it exactly once, calling
	// Done(at, req).
	MemRequest = mem.Request
)

// Simulation time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Memory operations, the values of MemRequest.Op.
const (
	MemRead  = mem.Read
	MemWrite = mem.Write
)

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.New() }

// NewSimulator builds the Mess analytical simulator on the engine.
func NewSimulator(eng *Engine, cfg SimulatorConfig) *Simulator {
	return messsim.New(eng, cfg)
}

// MemoryModelKind names one model of the zoo: the Sec. IV baselines
// "fixed", "md1", "internal-ddr", "dramsim3", "ramulator" and "ramulator2",
// the detailed "reference", and "mess", the analytical simulator.
type MemoryModelKind = memmodel.Kind

// MemoryModels lists every model kind.
func MemoryModels() []MemoryModelKind { return memmodel.Kinds() }

// NewMemoryModel builds a model of the given kind for the platform. The
// mess kind needs the platform's measured curve family (Characterize);
// the others ignore it.
func NewMemoryModel(kind MemoryModelKind, eng *Engine, p Platform, fam *Family) (MemBackend, error) {
	return memmodel.New(kind, eng, p, fam)
}

// Workloads, to run on a platform over its detailed memory system or,
// through WorkloadOptions.Backend, over any model.
type (
	// Kernel describes a workload's inner loop at cache-line granularity.
	Kernel = cpu.Kernel
	// WorkloadOptions configure a workload run.
	WorkloadOptions = workloads.Options
	// WorkloadResult is one workload execution (IPC + bandwidths).
	WorkloadResult = workloads.Result
	// PhasedApp drives cores through a repeating phase schedule.
	PhasedApp = workloads.PhasedApp
)

// RunWorkload executes a kernel multiprogrammed on the platform.
func RunWorkload(p Platform, k Kernel, opt WorkloadOptions) (WorkloadResult, error) {
	return workloads.Run(p, k, opt)
}

// RunEvalSuite runs the six benchmarks of the IPC-error experiments
// (STREAM ×4 multiprogrammed, LMbench and multichase single-core).
func RunEvalSuite(p Platform, opt WorkloadOptions) ([]WorkloadResult, error) {
	return workloads.EvalSuite(p, opt)
}

// NewHPCGProxy builds the HPCG proxy application (SpMV/SymGS/DDOT/WAXPBY
// phases delimited by MPI_Allreduce) over the platform's detailed memory
// system.
func NewHPCGProxy(p Platform) *PhasedApp {
	return workloads.NewPhasedApp(p, workloads.HPCGPhases(), nil)
}

// Application profiling.
type (
	// CountingBackend wraps a backend with the traffic counters a Sampler
	// reads; a PhasedApp carries one as Counting.
	CountingBackend = mem.CountingBackend
	// Sampler periodically snapshots a counting backend, producing the raw
	// windows that BuildProfile analyzes.
	Sampler = profile.Sampler
	// CounterWindow is a raw sampled traffic window.
	CounterWindow = profile.CounterWindow
	// PhaseSpan labels a timeline interval.
	PhaseSpan = profile.PhaseSpan
	// Profile is an analyzed application profile.
	Profile = profile.Profile
)

// NewSampler builds a sampler with the given period.
func NewSampler(eng *Engine, counting *CountingBackend, every SimTime) *Sampler {
	return profile.NewSampler(eng, counting, every)
}

// BuildProfile analyzes sampled counter windows against a curve family.
func BuildProfile(label string, fam *Family, windows []CounterWindow, phases []PhaseSpan, w StressWeights) *Profile {
	return profile.Build(label, fam, windows, phases, w)
}

// Trace-driven evaluation (the Sec. IV-D methodology).
type (
	// Trace is an ordered sequence of memory operations; Save writes it in
	// the messtrace text format.
	Trace = trace.Trace
	// TraceRecord is one traced memory operation.
	TraceRecord = trace.Record
	// TraceReplayResult is the outcome of a trace-driven simulation.
	TraceReplayResult = trace.ReplayResult
	// TraceSampleConfig tunes the sampled (phase-clustered) replay.
	TraceSampleConfig = trace.SampleConfig
	// SampledReplayResult is a sampled replay's reconstructed estimates
	// with per-cluster error bars.
	SampledReplayResult = trace.SampledResult
)

// ReadTrace parses a trace in the messtrace text format, validating that
// timestamps are non-decreasing.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReplayTrace drives the backend with the full trace and measures the
// achieved bandwidth and mean read latency.
func ReplayTrace(eng *Engine, backend MemBackend, t *Trace) TraceReplayResult {
	return trace.Replay(eng, backend, t)
}

// SampledReplayTrace estimates what ReplayTrace would report by windowing
// the trace, clustering the windows by access-vector fingerprint, and
// replaying one representative window (plus probes) per cluster — the
// 10–100× cheaper application-profiling path. mk builds the backend of one
// replayed window on that window's engine. Deterministic: same trace and
// config produce byte-identical estimates. Pass the platform whose DRAM
// geometry should drive the row-locality fingerprint feature.
func SampledReplayTrace(mk func(*Engine) MemBackend, p Platform, t *Trace, cfg TraceSampleConfig) (*SampledReplayResult, error) {
	if cfg.BankRow == nil {
		m := dram.NewMapper(&p.DRAM)
		cfg.BankRow = m.BankRow
	}
	return trace.Sampled(mk, t, cfg)
}
