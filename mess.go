// Package mess is the public API of Mess-Go, a Go reproduction of the Mess
// framework ("A Mess of Memory System Benchmarking, Simulation and
// Application Profiling", MICRO 2024). The framework is one artifact — the
// family of bandwidth–latency curves of a memory system, one curve per
// read/write composition (Family) — and three components around it:
//
//   - The Mess benchmark measures the family. Characterize runs it
//     (a pointer chase for latency beside paced traffic generators for
//     bandwidth) on one of the paper's platforms (Skylake … H100, Platforms)
//     and returns the curves with every raw sample; Family.Metrics derives
//     the Table-I quantities and PlotCurves draws them. CXLFamily and
//     OptaneFamily measure the modelled non-DDR devices the same way.
//   - The Mess simulator consumes a family. NewSimulator builds the
//     analytical memory model — a feedback controller that walks the
//     curves — as a MemBackend on an Engine, to sit under any CPU model;
//     NewMemoryModel builds it, the paper's baseline models and the
//     detailed reference by name, and RunEvalSuite or RunWorkload run
//     workloads on a platform with any of them as its memory.
//   - Mess application profiling positions an application on a family.
//     NewSampler snapshots the bandwidth counters of a running application
//     (NewHPCGProxy is the paper's) per window and BuildProfile places the
//     windows on the curves, with stress scores and the phase timeline;
//     ReadTrace, ReplayTrace and SampledReplayTrace evaluate a recorded
//     memory trace against a model instead.
//
// Experiments and RunExperiment reproduce every table and figure of the
// paper from these parts.
//
// Measuring a family is the expensive step, and all three components keep
// asking for the same ones, so every characterization goes through a
// CharacterizationService that runs each distinct (platform, options) pair
// once: Characterize and RunExperiment share a process-wide default
// (DefaultCharacterizationService), and NewCharacterizationService with a
// NewCurveStore keeps families on disk across processes. Everything is
// deterministic: simulated time is an integer count of picoseconds, and
// the same inputs give byte-identical curve CSVs.
//
// The machinery underneath — the event kernel, the DRAM controller, the
// service's cache tiers — is documented in the internal packages that
// implement it (sim, dram, charz, curvestore) and reachable through the
// cmd/ tools; this package names only what a program built on the three
// components needs.
package mess

import (
	"context"
	"io"
	"sync"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
)

// The curve family, the framework's central artifact. See its methods for
// what can be read off it: LatencyAt, Metrics, StressScore, WriteCSV, ….
type (
	// Point is one (bandwidth GB/s, latency ns) measurement.
	Point = core.Point
	// Curve is a bandwidth–latency curve at one read/write composition.
	Curve = core.Curve
	// Family is a set of curves spanning read/write compositions.
	Family = core.Family
	// StressWeights parameterize the memory stress score.
	StressWeights = core.StressWeights
)

// DefaultStressWeights are the paper's stress-score weights.
var DefaultStressWeights = core.DefaultStressWeights

// ReadCurvesCSV parses a family from the release CSV format, the one
// Family.WriteCSV writes.
func ReadCurvesCSV(r io.Reader) (*Family, error) { return core.ReadCSV(r) }

// PlotCurves renders the family as an ASCII chart.
func PlotCurves(w io.Writer, f *Family, width, height int) error {
	return plot.CurveFamily(w, f, width, height)
}

// Platform is a simulated machine specification.
type Platform = platform.Spec

// Pre-configured platforms of the paper's Table I.
var (
	Skylake        = platform.Skylake
	CascadeLake    = platform.CascadeLake
	Zen2           = platform.Zen2
	Power9         = platform.Power9
	Graviton3      = platform.Graviton3
	SapphireRapids = platform.SapphireRapids
	A64FX          = platform.A64FX
	H100           = platform.H100
)

// Platforms returns all Table-I platform specifications.
func Platforms() []Platform { return platform.All() }

// PlatformByName looks a platform up by its display name.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// The Mess benchmark.
type (
	// BenchmarkOptions configure a characterization; the zero value is the
	// paper's sweep: 14 traffic mixes × 20 paces over 20/50 µs windows.
	BenchmarkOptions = bench.Options
	// TrafficMix selects one kernel composition of the sweep.
	TrafficMix = bench.Mix
	// BenchmarkResult is a completed characterization: the curve family
	// plus every raw measurement sample.
	BenchmarkResult = bench.Result
)

// QuickBenchmarkOptions returns the reduced sweep of quick-scale
// experiments (three mixes, coarse pacing) for fast exploration.
func QuickBenchmarkOptions() BenchmarkOptions { return exp.Sweep(exp.Quick) }

// Characterize runs the Mess benchmark on the platform's detailed memory
// model and returns the curve family with all samples. It is served by the
// default characterization service: repeated calls with an identical
// (platform, options) pair simulate once, and concurrent ones share a
// single run. Cancelling ctx stops the sweep at its next measurement point
// and returns ctx.Err().
func Characterize(ctx context.Context, p Platform, opt BenchmarkOptions) (*BenchmarkResult, error) {
	art, err := defaultService().CharacterizeContext(ctx, charz.Request{Spec: p, Options: opt, NeedSamples: true})
	if err != nil {
		return nil, err
	}
	return art.Result, nil
}

// MeasureUnloadedLatency runs only the pointer chase and reports the
// platform's unloaded load-to-use latency in nanoseconds.
func MeasureUnloadedLatency(p Platform) (float64, error) {
	return bench.MeasureUnloaded(p, exp.Sweep(exp.Quick))
}

// CXLFamily measures the bandwidth–latency curves of the modelled CXL
// memory expander (the manufacturer's-model stand-in of Sec. V-C).
func CXLFamily() *Family { return cxl.Family(cxl.SweepOptions{}) }

// OptaneFamily measures the curves of the modelled Intel Optane DC
// persistent-memory modules (App Direct mode), the other non-DDR
// technology the Mess simulator release supports.
func OptaneFamily() *Family { return cxl.OptaneFamily(cxl.SweepOptions{}) }

// The characterization service: the single path from a (platform, options)
// pair to its curve family, with content-addressed keys, in-memory
// memoization, deduplication of concurrent requests, optional persistence
// and bounded parallel fan-out (CharacterizeAllContext). See internal/charz.
type (
	// CharacterizationService caches and deduplicates characterizations.
	CharacterizationService = charz.Service
	// CharacterizationConfig parameterizes a service.
	CharacterizationConfig = charz.Config
	// CharacterizationRequest names one characterization: platform,
	// options, backend tag, and whether raw samples are required.
	CharacterizationRequest = charz.Request
	// CurveStore persists curve families under a directory in the release
	// CSV format; set it as a CharacterizationConfig's Store.
	CurveStore = charz.DiskStore
)

// NewCharacterizationService builds a service.
func NewCharacterizationService(cfg CharacterizationConfig) *CharacterizationService {
	return charz.New(cfg)
}

// NewCurveStore opens (creating if needed) an on-disk curve cache.
func NewCurveStore(dir string) (*CurveStore, error) { return charz.NewDiskStore(dir) }

// defaultService is built by the first call that needs it, not at import.
// It is in-memory only: a program that wants curves on disk builds its own
// service over a NewCurveStore.
var defaultService = sync.OnceValue(func() *charz.Service { return charz.New(charz.Config{}) })

// DefaultCharacterizationService returns the process-wide service behind
// Characterize and RunExperiment. Its Stats count simulations run against
// cache hits. It keeps every family and experiment artifact it computes
// for the life of the process; a program that needs a bound builds its
// own service.
func DefaultCharacterizationService() *CharacterizationService { return defaultService() }

// Experiment reproduction: every table and figure of the paper.
type (
	// Experiment is one registered reproduction target.
	Experiment = exp.Experiment
	// ExperimentResult is a structured outcome; Render writes it as text.
	ExperimentResult = exp.Result
	// ExperimentScale selects Quick or Full fidelity.
	ExperimentScale = exp.Scale
)

// Experiment scales.
const (
	ScaleQuick = exp.Quick
	ScaleFull  = exp.Full
)

// Experiments lists every registered experiment.
func Experiments() []Experiment { return exp.All() }

// RunExperiment executes one experiment by id ("fig2" … "fig18", "table1",
// "tablespeed", "openpiton-bug"). Its reference curves come from svc — one
// with a CurveStore lets a registry sweep survive process restarts — or,
// when svc is nil, from the default service, so experiments run back to
// back share them. Cancelling ctx stops the experiment's characterizations
// at the next measurement point and surfaces as ctx.Err().
func RunExperiment(ctx context.Context, svc *CharacterizationService, id string, s ExperimentScale) (*ExperimentResult, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	if svc == nil {
		svc = defaultService()
	}
	env := exp.NewEnv(s, svc)
	env.Ctx = ctx
	return e.Run(env)
}

// UnknownExperimentError reports a request for an unregistered experiment.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "mess: unknown experiment " + e.ID
}
