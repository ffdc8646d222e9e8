package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
	"github.com/mess-sim/mess/internal/workloads"
)

// traceWorkload is trace-profile, the application-profiling pillar: read a
// serialized trace, replay it in full and through the phase-clustered
// sampler, then profile the HPCG proxy against the platform's curves.
type traceWorkload struct {
	spec      platform.Spec // the traced and replayed platform
	path      string        // the serialized trace
	fileBytes int64
	captured  *trace.Trace
	reads     uint64

	hpcgSpec platform.Spec
	hpcgFam  *core.Family
	hpcgDur  sim.Time

	// last iteration
	divergencePct, recordFrac, speedupX float64
}

func setupTraceProfile(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "trace-profile")
	w := &traceWorkload{spec: zooSpec()}
	w.spec.Cores = 12

	// One closed-loop capture at mid pressure. The seed moves the store
	// share and the pacing a little: a different trace per seed, the same
	// amount of work.
	limit := cfg.scaled(600_000, 20_000)
	opt := bench.QuickOptions()
	opt.Mixes = []bench.Mix{{StorePercent: 38 + r.intn(5)}}
	opt.PacesNs = []float64{r.between(15, 17)}
	opt.Parallelism = 1
	// Sampling needs many windows of a span long enough for queueing to
	// reach steady state (~µs), hence a capture far longer than a sweep's.
	opt.Measure = sim.Time(float64(limit)/600_000*800) * sim.Microsecond
	var caps []*trace.Capture
	opt.Backend = func(eng *sim.Engine) mem.Backend {
		c := trace.NewCapture(eng, dram.New(eng, w.spec.DRAM), limit)
		caps = append(caps, c)
		return c
	}
	if _, err := bench.Run(w.spec, opt); err != nil {
		return nil, err
	}
	for _, c := range caps { // the loaded point's capture, not the unloaded anchor's
		if w.captured == nil || len(c.T.Records) > len(w.captured.Records) {
			w.captured = &c.T
		}
	}
	for _, rec := range w.captured.Records {
		if !rec.Write {
			w.reads++
		}
	}
	w.path = filepath.Join(cfg.dir, "capture.trace")
	f, err := os.Create(w.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	if err := w.captured.Save(bw); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil {
		w.fileBytes = fi.Size()
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	// The curves the HPCG profile is read against.
	w.hpcgSpec = platform.CascadeLake()
	w.hpcgSpec.Cores, w.hpcgSpec.DRAM.Channels = 8, 3
	w.hpcgDur = sim.Time(cfg.scaled(700, 100)) * sim.Microsecond
	hopt := bench.QuickOptions()
	hopt.Parallelism = 2
	art, err := charz.New(charz.Config{}).Characterize(charz.Request{Spec: w.hpcgSpec, Options: hopt})
	if err != nil {
		return nil, err
	}
	w.hpcgFam = art.Family
	return w, nil
}

func (w *traceWorkload) replayModel(eng *sim.Engine) mem.Backend {
	return memmodel.NewDRAMsim3Like(eng, w.spec)
}

func (w *traceWorkload) iterate(s scope) iterResult {
	var res iterResult
	d := newDigester()

	var tr *trace.Trace
	var err error
	s.span("trace", "read", func(scope) {
		var f *os.File
		if f, err = os.Open(w.path); err != nil {
			return
		}
		defer f.Close()
		tr, err = trace.Read(f)
	})
	res.check(err == nil, "trace.Read: %v", err)
	if err != nil {
		return res
	}
	same := len(tr.Records) == len(w.captured.Records)
	for i := 0; same && i < len(tr.Records); i++ {
		same = tr.Records[i] == w.captured.Records[i]
	}
	res.check(same, "trace read back differs from the captured trace")

	var full trace.ReplayResult
	s.span("trace", "replay", func(scope) {
		eng := sim.New()
		full = trace.Replay(eng, w.replayModel(eng), tr)
	})
	res.ops = len(tr.Records)
	res.check(full.Reads == w.reads, "replay completed %d reads, trace holds %d", full.Reads, w.reads)
	d.add("full %+v\n", full)

	var sam *trace.SampledResult
	mapper := dram.NewMapper(&w.spec.DRAM)
	s.span("trace", "sampled", func(scope) {
		sam, err = trace.Sampled(w.replayModel, tr, trace.SampleConfig{
			Span: 2 * sim.Microsecond, BankRow: mapper.BankRow, Telemetry: s.tel,
		})
	})
	res.check(err == nil, "trace.Sampled: %v", err)
	if err == nil {
		w.divergencePct = sam.DivergencePct(full)
		w.recordFrac = float64(sam.ReplayedRecords) / float64(sam.TotalRecords)
		w.speedupX = sam.SpeedupX
		res.check(w.divergencePct < 5, "sampled replay diverges %.2f%% from the full replay", w.divergencePct)
		d.add("sampled %+v ±%v ±%v %d/%d\n", sam.Estimate, sam.BWErrGBs, sam.LatErrNs, sam.ReplayedRecords, sam.TotalRecords)
	}

	var app *workloads.PhasedApp
	var sampler *profile.Sampler
	s.span("workloads", "hpcg run", func(scope) {
		app = workloads.NewPhasedApp(w.hpcgSpec, workloads.HPCGPhases(), nil)
		sampler = profile.NewSampler(app.Eng, app.Counting, 10*sim.Microsecond)
		sampler.Start()
		app.Run(w.hpcgDur)
		sampler.Stop()
	})
	var prof *profile.Profile
	s.span("profile", "build", func(scope) {
		phases := make([]profile.PhaseSpan, 0, len(app.Events()))
		for _, e := range app.Events() {
			phases = append(phases, profile.PhaseSpan{Name: e.Name, Start: e.Start, End: e.End, MPI: e.MPI})
		}
		prof = profile.Build("HPCG proxy", w.hpcgFam, sampler.Windows(), phases, core.DefaultStressWeights)
	})
	res.check(len(prof.Samples) > 0, "HPCG profile holds no samples")
	var b strings.Builder
	res.check(prof.WriteTrace(&b) == nil, "profile.WriteTrace failed")
	d.add("%s", b.String())
	res.digest = d.sum()
	return res
}

func (w *traceWorkload) verify() iterResult { return iterResult{} }
func (w *traceWorkload) close() error       { return os.Remove(w.path) }

func (w *traceWorkload) layers(t *tracedRun, m layerMetrics) {
	records := float64(len(w.captured.Records))
	if ms := t.callMs("read"); ms > 0 {
		m["trace.read_mb_s"] = float64(w.fileBytes) / 1e6 / (ms / 1e3)
	}
	m["trace.replay_ns_per_record"] = t.callMs("replay") * 1e6 / records
	phase := func(prefix string) float64 {
		return t.progMs(func(p progSpan) bool { return p.proc == "trace" && strings.HasPrefix(p.name, prefix) })
	}
	m["trace.sampled_fingerprint_ms"] = phase("fingerprint")
	m["trace.sampled_cluster_ms"] = phase("cluster")
	m["trace.sampled_replay_ms"] = phase("replay cluster")
	m["trace.sampled_reconstruct_ms"] = phase("reconstruct")
	m["trace.sampled_record_frac"] = w.recordFrac
	m["trace.sampled_speedup_x"] = w.speedupX
	m["trace.sampled_divergence_pct"] = w.divergencePct
	m["profile.hpcg_sim_ms"] = t.callMs("hpcg run")
	m["profile.build_ms"] = t.callMs("build")
}
