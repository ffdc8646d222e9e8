// Package exp is the reproduction harness: one registered experiment per
// table and figure of the paper's evaluation. Each experiment runs at two
// scales — Quick (reduced sweeps and scaled-down platforms, for tests and
// benchmarks) and Full (the paper's configurations, for the CLI tools) —
// and produces a structured Result that renders as tables, ASCII figures
// and notes.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
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
// dedupe across experiments, not just within one. The simulations the
// service cannot serve but several experiments share (the HPCG profile of
// fig15 and fig16, a platform's STREAM suite in fig2 and table1) are
// memoised on the Env the same way: once per Env, read-only afterwards.
type Env struct {
	Scale Scale
	Charz *charz.Service
	// Ctx, when set, is the context every characterization this environment
	// issues runs under — a CLI -timeout or SIGINT cancels the experiment's
	// reference sweeps at the next point boundary. nil means background.
	Ctx context.Context
	// Shards, when at least 2, asks every characterization this
	// environment runs to shard each measurement point across that many
	// engines (bench.Options.Shards). Execution-only: results are
	// byte-identical and cache keys unchanged, so sharded and unsharded
	// environments share the service's entries.
	Shards int

	hpcg struct {
		once sync.Once
		run  *hpcgRun
		err  error
	}
	stream struct {
		sync.Mutex
		suites map[platform.Spec]*streamSuite
	}
}

// streamSuite is one platform's STREAM results, simulated on first use.
type streamSuite struct {
	once    sync.Once
	results []workloads.Result
	err     error
}

// streamSuite runs the four STREAM kernels on the platform with default
// options, once per environment; callers must not modify the results.
func (env *Env) streamSuite(spec platform.Spec) ([]workloads.Result, error) {
	env.stream.Lock()
	if env.stream.suites == nil {
		env.stream.suites = map[platform.Spec]*streamSuite{}
	}
	st := env.stream.suites[spec]
	if st == nil {
		st = &streamSuite{}
		env.stream.suites[spec] = st
	}
	env.stream.Unlock()
	st.once.Do(func() { st.results, st.err = workloads.StreamSuite(spec, workloads.Options{}) })
	return st.results, st.err
}

// NewEnv builds an environment. A nil service gets a fresh in-memory one,
// so standalone experiment runs still dedupe internally.
func NewEnv(s Scale, svc *charz.Service) *Env {
	if svc == nil {
		svc = charz.New(charz.Config{})
	}
	return &Env{Scale: s, Charz: svc}
}

// Context resolves the environment's context (background when unset).
func (env *Env) Context() context.Context {
	if env.Ctx != nil {
		return env.Ctx
	}
	return context.Background()
}

// reference returns the platform's measured reference family — the curves
// of the detailed DRAM model standing in for "actual hardware" — via the
// characterization service (cached, deduplicated across experiments).
func (env *Env) reference(spec platform.Spec) (*core.Family, error) {
	art, err := env.Charz.CharacterizeContext(env.Context(), charz.Request{Spec: spec, Options: env.benchOptions()})
	if err != nil {
		return nil, err
	}
	return art.Family, nil
}

// benchOptions resolves the environment's sweep settings: the scale's
// defaults plus the execution-only sharding knob.
func (env *Env) benchOptions() bench.Options {
	opt := benchOptions(env.Scale)
	opt.Shards = env.Shards
	return opt
}

// referenceAll resolves the reference families of several platforms
// concurrently through the service's bounded worker pool.
func (env *Env) referenceAll(specs []platform.Spec) ([]*core.Family, error) {
	reqs := make([]charz.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = charz.Request{Spec: spec, Options: env.benchOptions()}
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

func register(e Experiment) { registry = append(registry, e) }

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
