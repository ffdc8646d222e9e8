package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/mess-sim/mess/internal/telemetry"
)

// workload is one set of inputs the benchmark runs. Every iteration of a
// workload does the same fixed work; how many iterations fit is decided by
// the run length, and every timing reported is a median over them.
type workload struct {
	name string
	// unit names the op that ops_per_s counts on this workload.
	unit string
	// setup builds the inputs from the seed and everything the timed
	// region only reads: reference families, captured traces, populated
	// stores. It is timed (setup_s), so work moved here still shows.
	setup func(cfg config) (instance, error)
}

// instance is one set-up of a workload.
type instance interface {
	// iterate runs the fixed work once, checking its own outputs.
	iterate(s scope) iterResult
	// verify runs once, untimed, after the iterations: checks that need
	// reference work the timed region must not contain.
	verify() iterResult
	// layers fills the per-layer metrics after the traced iterations: it
	// reads the recorded spans and runs the calibrations that price what
	// cannot be separated from outside.
	layers(t *tracedRun, m layerMetrics)
	close() error
}

// iterResult is what one iteration (or the final verify) reports.
type iterResult struct {
	ops    int    // units of work completed
	checks int    // outputs checked
	failed int    // outputs found wrong
	digest string // SHA-256 over the canonical outputs; "" when none
	notes  []string
	// cleanup, when set, restores what the iteration changed on disk; it
	// runs after the clock has stopped.
	cleanup func()
}

func (r *iterResult) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		if len(r.notes) < 8 {
			r.notes = append(r.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (r *iterResult) merge(o iterResult) {
	r.ops += o.ops
	r.checks += o.checks
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// config is what a run hands a workload.
type config struct {
	seed uint64
	// scale multiplies every workload's per-iteration work (1 = the sizes
	// the committed numbers use; -smoke runs a small fraction).
	scale float64
	// dir is scratch space inside the checkout, removed when the run ends.
	dir string
}

// scaled applies the work scale to a count, never below min.
func (c config) scaled(n, min int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

type layerMetrics map[string]float64

// tracedRun is what the traced iterations left behind.
type tracedRun struct {
	spans []span     // benchmark-side spans (program sweeps adopted)
	prog  []progSpan // spans the program recorded itself
	iters int
}

// progMs sums the program spans selected by match, in ms per traced
// iteration.
func (t *tracedRun) progMs(match func(progSpan) bool) float64 {
	var ns int64
	for _, p := range t.prog {
		if match(p) {
			ns += p.dur
		}
	}
	return float64(ns) / 1e6 / float64(t.iters)
}

// callMs reports the mean duration per iteration of benchmark-side spans
// with the given name, in ms.
func (t *tracedRun) callMs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e6 / float64(t.iters)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single list of what this benchmark
// reports. The program prints exactly the names declared there, so the
// file and the output cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples, Q1 and Q3 qualify a median: how many iterations or calls it
	// was taken over and their quartiles. Absent on counts and ratios.
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
}

// contractLine is the last line of standard output of a one-workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload in a results file.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Iterations int     `json:"iterations"`
	OpsPerIter int     `json:"ops_per_iteration"`
	OpUnit     string  `json:"op_unit"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	Digest     string  `json:"digest"`
	// HostSpeed is the factor that took this run's measured times to the
	// reference host (below 1: the host ran slower than the reference);
	// RawWallS is the median iteration as the clock read it.
	HostSpeed float64                `json:"host_speed,omitempty"`
	RawWallS  float64                `json:"raw_wall_s,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
}

// environment is recorded once per results file.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GitCommit  string `json:"git_commit"`
	// ValidatedAgainst says what the simulated statistics are compared
	// with: the repository holds no hardware reference table, so accuracy
	// figures are against its own detailed model and no paper error is
	// given.
	ValidatedAgainst string   `json:"validated_against"`
	Warnings         []string `json:"warnings,omitempty"`
}

type resultsFile struct {
	Env  environment `json:"environment"`
	Runs []runRecord `json:"runs"`
}

func currentEnv() environment {
	env := environment{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NProc:            runtime.NumCPU(),
		GitCommit:        gitCommit(),
		ValidatedAgainst: "in-repo detailed DRAM model",
	}
	if env.NProc < 2 {
		env.Warnings = append(env.Warnings,
			"nproc < 2: the two workers and the shard barrier share one core; timings measure contention")
	}
	return env
}

// gitCommit reads HEAD without running git: the acceptance checkout is not
// a repository, where the commit is simply unknown.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		commit = strings.TrimSpace(string(data))
	}
	if len(commit) > 12 {
		commit = commit[:12]
	}
	return commit
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapWatch samples the Go heap's live+unswept object bytes while an
// iteration runs and keeps the high-water mark. runtime/metrics reads do
// not stop the world, so watching does not perturb the timed region the
// way runtime.ReadMemStats would.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the watcher and reports the high-water mark.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// timedIter is one measured iteration.
type timedIter struct {
	wall, cpu, heapMB float64
	res               iterResult
}

func measureIter(inst instance, s scope) timedIter {
	runtime.GC() // same heap state at every iteration's start
	hw := watchHeap()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var res iterResult
	s.span(layerHarness, "iteration", func(s scope) { res = inst.iterate(s) })
	it := timedIter{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, heapMB: hw.peakMB(), res: res}
	if res.cleanup != nil {
		res.cleanup()
	}
	return it
}

// warmUpScale is the share of an iteration's work the warm-up runs.
const warmUpScale = 0.1

// warmUp is the part of set-up that readies the process rather than the
// inputs: one iteration of the same workload at a tenth of the work, so
// heap growth, lazy initialisation and first-use page faults are paid
// before the clock starts. It is counted into setup_s.
func warmUp(w workload, cfg config) error {
	cfg.scale *= warmUpScale
	cfg.dir = filepath.Join(cfg.dir, "warm-up")
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	small, err := w.setup(cfg)
	if err != nil {
		return err
	}
	res := small.iterate(scope{})
	if res.cleanup != nil {
		res.cleanup()
	}
	if res.failed > 0 {
		small.close()
		return fmt.Errorf("%d wrong outputs: %v", res.failed, res.notes)
	}
	return small.close()
}

// runOptions are the knobs of one run.
type runOptions struct {
	cfg     config
	seconds float64
	traced  bool
	// once is -smoke: a single set-up and a single iteration.
	once bool
	// traceOut receives the Chrome trace of a traced run; "" skips it.
	traceOut string
}

// times scales a time to the reference host (see calib.go).
func (v metricValue) times(f float64) metricValue {
	v.Value, v.Q1, v.Q3 = v.Value*f, v.Q1*f, v.Q3*f
	return v
}

// medianOf summarises per-iteration values as a median with quartiles.
func medianOf(xs []float64, unit string) metricValue {
	q1, q3 := quartiles(xs)
	return metricValue{Value: median(xs), Unit: unit, Samples: len(xs), Q1: q1, Q3: q3}
}

// runWorkload sets the workload up, measures it for the run length and
// checks its outputs. An untraced run reports the end-to-end metrics; a
// traced run reports the per-layer ones and never an end-to-end timing.
func runWorkload(w workload, o runOptions) (runRecord, error) {
	rec := runRecord{
		Workload: w.name, Seed: o.cfg.seed, Traced: o.traced, Seconds: o.seconds,
		Scale: o.cfg.scale, OpUnit: w.unit, Metrics: map[string]metricValue{},
	}
	var (
		inst       instance
		setupsS    []float64
		setupSpeed hostSpeed
	)
	// Set-up runs three times; setup_s is the median.
	setups := 3
	if o.once {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		setupSpeed.sample(2)
		if inst != nil {
			if err := inst.close(); err != nil {
				return rec, err
			}
		}
		cfg := o.cfg
		cfg.dir = filepath.Join(o.cfg.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return rec, err
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return rec, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if err := warmUp(w, cfg); err != nil {
			return rec, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
	}
	setupSpeed.sample(2)
	defer inst.close()

	var total iterResult
	digests := map[string]bool{}
	note := func(r iterResult) {
		total.merge(r)
		if r.digest != "" {
			digests[r.digest] = true
			rec.Digest = r.digest
		}
	}
	if !o.traced {
		var walls, cpus, heaps []float64
		var speed hostSpeed
		speed.sample(4)
		start := time.Now()
		for len(walls) == 0 || (!o.once && time.Since(start).Seconds() < o.seconds) {
			it := measureIter(inst, scope{})
			speed.sample(2)
			note(it.res)
			rec.OpsPerIter = it.res.ops
			walls, cpus, heaps = append(walls, it.wall), append(cpus, it.cpu), append(heaps, it.heapMB)
		}
		rec.Iterations = len(walls)
		f := speed.factor()
		rec.HostSpeed, rec.RawWallS = f, median(walls)
		rec.Metrics["setup_s"] = medianOf(setupsS, "s").times(setupSpeed.factor())
		rec.Metrics["wall_s"] = medianOf(walls, "s").times(f)
		rec.Metrics["cpu_s"] = medianOf(cpus, "s").times(f)
		rec.Metrics["peak_rss_mb"] = medianOf(heaps, "MB")
		rec.Metrics["ops_per_s"] = metricValue{
			Value: float64(rec.OpsPerIter) / (median(walls) * f), Unit: "1/s", Samples: len(walls),
		}
	} else {
		tr := telemetry.NewTracer()
		reg := telemetry.NewRegistry()
		rr := newRecorder(tr)
		base := scope{rec: rr, tel: &telemetry.Set{Metrics: reg, Tracer: tr}, parent: -1, track: w.name}
		// Untraced and traced iterations alternate for half the run
		// length, so the overhead figure compares like with like; the
		// other half is left to the layer calibrations.
		var plain, traced []float64
		start := time.Now()
		for len(traced) == 0 || (!o.once && time.Since(start).Seconds() < o.seconds/2) {
			it := measureIter(inst, scope{})
			note(it.res)
			plain = append(plain, it.wall)
			s := base
			s.iter = len(traced)
			it = measureIter(inst, s)
			note(it.res)
			rec.OpsPerIter = it.res.ops
			traced = append(traced, it.wall)
		}
		rec.Iterations = len(traced)
		note(inst.verify()) // before the layer metrics: some are priced against verify's reference work
		chrome, prog, err := exportTrace(tr)
		if err != nil {
			return rec, err
		}
		if n := tr.Dropped(); n > 0 {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("trace buffer overflowed: %d events dropped", n))
		}
		rr.adopt(prog)
		t := &tracedRun{spans: rr.spans, prog: prog, iters: len(traced)}
		m := layerMetrics{}
		m["telemetry.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
		byLayer, covered, wall := selfTimes(t.spans)
		m["spans.coverage_frac"] = float64(covered) / float64(wall)
		for layer, ns := range byLayer {
			m["self_ms."+layer] = float64(ns) / 1e6 / float64(t.iters)
		}
		total.check(m["spans.coverage_frac"] >= 0.95,
			"only %.1f%% of the traced iterations lies inside a named span", 100*m["spans.coverage_frac"])
		inst.layers(t, m)
		for name, v := range m {
			rec.Metrics[name] = metricValue{Value: v}
		}
		if o.traceOut != "" {
			if err := os.WriteFile(o.traceOut, chrome, 0o644); err != nil {
				return rec, err
			}
		}
	}

	if !o.traced {
		note(inst.verify())
	}
	total.check(len(digests) <= 1, "output digest differs between iterations (%d distinct)", len(digests))
	rec.Attempted, rec.Failed, rec.Notes = total.checks, total.failed, total.notes
	return rec, nil
}

// digester hashes a workload's canonical outputs.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
}
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// timeMs runs f and reports its host time in ms.
func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// nsPer runs f, which performs n operations, and reports host ns per op.
func nsPer(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// mallocsPer reports heap allocations per op of f over n ops.
func mallocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
