// Package exp is the reproduction harness: one registered experiment per
// table and figure of the paper's evaluation. Each experiment runs at two
// scales — Quick (reduced sweeps and scaled-down platforms, for tests and
// benchmarks) and Full (the paper's configurations, for the CLI tools) —
// and produces a structured Result that renders as tables, ASCII figures
// and notes.
//
// # Where each pipeline lives
//
// Each component's pipeline is assembled in one place, the package that
// owns it; this package, the cmd/ tools and the examples call it (the root
// TestPipelinesAssembledOnce holds them to it):
//
//   - model factory: memmodel.Factory(kind, spec, fam), whose factory
//     cannot fail — an unknown kind is its error, before any simulation;
//     modelFamily here runs it under charz, tagged "model:<kind>";
//   - trace capture of a sweep point: trace.CapturePoint;
//   - profile run (sampler, application, analysis): profile.Run, or its
//     two halves profile.Record (the simulation, memoised here) and
//     profile.Build (the analysis, run live);
//   - IPC-error table: workloads.IPCErrors;
//   - worker pool: par.Workers and its GOMAXPROCS form par.Do, also under
//     bench.RunContext and cxl.MeasureFamily;
//   - shared flags: cli.CacheFlags beside cli.TelemetryFlags;
//   - a Result's ID and Paper: stamped by register.
//
// # Execution
//
// The simulations besides the curve families — workload suites, trace
// captures and replays, the HPCG profile — are independent and
// deterministic, so the harness runs them side by side and once; what a
// report says never depends on either. The primitive is par.Do (see that
// package for its contract). The rules on top of it:
//
//   - One fan-out level per call tree, so at most GOMAXPROCS simulations
//     (engines, traces) are ever live and peak heap stays flat.
//     workloads.StreamSuite/EvalSuite fan out over their kernels, and every
//     caller loops over suites serially (fig2, table1, the per-model loop of
//     fig11/fig13, model scoring). exp fans out only over loops whose bodies
//     are single simulations: fig6 over (mix, pace) sweep points — one
//     capture per point, replayed into every replica of that platform,
//     curves assembled in pace order after the join; fig17/fig18 over
//     benchmarks (two serial workloads.Run each); fig6s over the full and
//     the sampled replay of one trace.
//   - What stays serial and why: tablespeed — its wall-clock is its result,
//     so it times its five sweeps one after another with nothing else
//     running in the process and must stay outside any fan-out; the trace
//     captures of fig6s — a 192 µs capture is the largest object the
//     registry builds, and serial captures mean a second one is never live;
//     everything charz serves (the service has its own bounded pool).
//   - Memoised by the service: every simulation a report prints goes
//     through env.Charz (a family, or charz.Memo keyed by everything it is
//     computed from), built by a request builder the test list
//     registryRequests calls too. A service computes each once, and a
//     disk store (-cache-dir) keeps them across invocations, so a
//     disk-warm registry simulates nothing but tablespeed's timed sweeps.
//     Outputs are cached, never rendered rows: families, profiles and
//     rows are rebuilt from them on every call. messexp builds one Env
//     per invocation and the benchmark one per pass; the facade's
//     RunExperiment builds an Env per call over the same service. The CXL
//     and remote-socket device families are pure functions of the scale:
//     a sync.OnceValue per scale, process-wide, resolved before a
//     fan-out, never inside it.
//   - Shared results are read-only: a captured *trace.Trace during its
//     replays, and the reference *core.Family behind concurrent
//     memmodel/messsim backends. Family.Sort and label edits are for the
//     goroutine that built the family, before it is shared. A memoised
//     output is a private copy per caller (charz decodes one each).
//
// Gates: TestFanOutAndMemoAreInvisible (reports byte-identical at
// GOMAXPROCS 1 and 4; fig16 alone == fig16 after fig15),
// TestDiskWarmRegistrySimulatesNothing (a disk-warm service renders the
// same bytes and runs nothing), TestResultDigests (every stored value, and
// no file outside registryRequests), workloads' TestSuitesMatchSerialRuns,
// the internal/par tests under -race, and cpu's
// TestKernelCoreSteadyStateZeroAllocs — a running cpu.KernelCore tracks its
// line-step's unissued operations as one index (operation i touches array
// i), never as a slice it re-slices and re-appends.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/sim"
)

// Scale selects experiment fidelity.
type Scale int

const (
	// Quick shrinks sweeps and large platforms so the whole registry runs
	// in minutes; curve *shapes* and orderings are preserved.
	Quick Scale = iota
	// Full uses the paper's platform sizes and dense sweeps.
	Full
)

func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// Bar is one labelled value of a bar-chart result.
type Bar struct {
	Label string
	Value float64
}

// Result is the structured outcome of an experiment.
type Result struct {
	ID       string
	Title    string
	Paper    string
	Families []*core.Family
	Header   []string
	Rows     [][]string
	Bars     []Bar
	BarUnit  string // format for bar values, e.g. "%.1f%%"
	Notes    []string
}

// Render writes the result as text: tables, curve plots, bars and notes.
func (r *Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "== %s (%s) — %s ==\n\n", r.ID, r.Paper, r.Title)
	if len(r.Header) > 0 {
		if err := plot.Table(w, r.Header, r.Rows); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Families {
		if !plot.Drawable(f) {
			fmt.Fprintf(w, "(family %q has no drawable points at this scale)\n\n", f.Label)
			continue
		}
		if err := plot.CurveFamily(w, f, 72, 20); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if len(r.Bars) > 0 {
		labels := make([]string, len(r.Bars))
		values := make([]float64, len(r.Bars))
		for i, b := range r.Bars {
			labels[i], values[i] = b.Label, b.Value
		}
		unit := r.BarUnit
		if unit == "" {
			unit = "%.2f"
		}
		if err := plot.Bars(w, r.Title, labels, values, unit, 44); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// Env is the execution environment threaded through every experiment: the
// fidelity scale plus the shared characterization service. One Env driving
// a whole registry run (messexp -run all) performs each unique
// characterization exactly once — the service's content-addressed keys
// dedupe across experiments, not just within one — and computes each
// simulation output it memoises (charz.Memo) once as well.
type Env struct {
	Scale Scale
	Charz *charz.Service
	// Ctx, when set, is the context every characterization this environment
	// issues runs under — a CLI -timeout or SIGINT cancels the experiment's
	// reference sweeps at the next point boundary. nil means background.
	Ctx context.Context
}

// NewEnv builds an environment over the service.
func NewEnv(s Scale, svc *charz.Service) *Env {
	return &Env{Scale: s, Charz: svc}
}

// Context resolves the environment's context (background when unset).
func (env *Env) Context() context.Context {
	if env.Ctx != nil {
		return env.Ctx
	}
	return context.Background()
}

// refRequest is the characterization of the platform's reference family at
// the scale: the curves of the detailed DRAM model standing in for "actual
// hardware".
func refRequest(spec platform.Spec, s Scale) charz.Request {
	return charz.Request{Spec: spec, Options: benchOptions(s)}
}

// reference returns the platform's reference family via the
// characterization service (cached, deduplicated across experiments).
func (env *Env) reference(spec platform.Spec) (*core.Family, error) {
	art, err := env.Charz.CharacterizeContext(env.Context(), refRequest(spec, env.Scale))
	if err != nil {
		return nil, err
	}
	return art.Family, nil
}

// referenceAll resolves the reference families of several platforms
// concurrently through the service's bounded worker pool.
func (env *Env) referenceAll(specs []platform.Spec) ([]*core.Family, error) {
	reqs := make([]charz.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = refRequest(spec, env.Scale)
	}
	arts, err := env.Charz.CharacterizeAllContext(env.Context(), reqs)
	if err != nil {
		return nil, err
	}
	fams := make([]*core.Family, len(arts))
	for i, art := range arts {
		fams[i] = art.Family
	}
	return fams, nil
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string
	Paper string // the table/figure it reproduces
	Title string
	Run   func(env *Env) (*Result, error)
}

var registry []Experiment

// register adds the experiment, its Run wrapped to stamp the Result with
// the ID and Paper the registry already states.
func register(e Experiment) {
	run := e.Run
	e.Run = func(env *Env) (*Result, error) {
		r, err := run(env)
		if r != nil {
			r.ID, r.Paper = e.ID, e.Paper
		}
		return r, err
	}
	registry = append(registry, e)
}

// All returns the registered experiments in registration order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// scaleSpec shrinks a platform for Quick runs: cores and memory channels
// divided by the same factor, preserving the concurrency-to-bandwidth
// balance that determines the curve shape.
func scaleSpec(spec platform.Spec, s Scale) platform.Spec {
	if s == Full {
		return spec
	}
	factor := 1
	switch {
	case spec.Cores >= 96:
		factor = 8
	case spec.Cores >= 48:
		factor = 4
	case spec.Cores >= 16:
		factor = 2
	}
	if factor == 1 {
		return spec
	}
	out := spec
	out.Cores = spec.Cores / factor
	out.DRAM.Channels = spec.DRAM.Channels / factor
	if out.DRAM.Channels < 1 {
		out.DRAM.Channels = 1
	}
	if out.Cores < 2 {
		out.Cores = 2
	}
	out.Name = spec.Name + " (scaled)"
	return out
}

// benchOptions returns the sweep settings per scale.
func benchOptions(s Scale) bench.Options {
	if s == Quick {
		return bench.Options{
			Mixes:   []bench.Mix{{StorePercent: 0}, {StorePercent: 40}, {StorePercent: 100}},
			PacesNs: []float64{0, 2, 6, 16, 48, 128, 384},
			Warmup:  6 * sim.Microsecond,
			Measure: 18 * sim.Microsecond,
		}
	}
	var mixes []bench.Mix
	for p := 0; p <= 100; p += 10 {
		mixes = append(mixes, bench.Mix{StorePercent: p})
	}
	// Streaming-store kernels cover the write-heavy half of the space.
	for _, p := range []int{40, 70, 100} {
		mixes = append(mixes, bench.Mix{StorePercent: p, NonTemporal: true})
	}
	return bench.Options{
		Mixes:   mixes,
		PacesNs: []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768},
		Warmup:  20 * sim.Microsecond,
		Measure: 50 * sim.Microsecond,
	}
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
