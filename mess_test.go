package mess_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/mess-sim/mess"
)

// The facade tests exercise the library exactly as an external user would.

func TestPlatformsExposed(t *testing.T) {
	ps := mess.Platforms()
	if len(ps) != 8 {
		t.Fatalf("platforms = %d, want 8", len(ps))
	}
	sk := mess.Skylake()
	if sk.TheoreticalBandwidthGBs() < 120 || sk.TheoreticalBandwidthGBs() > 132 {
		t.Fatalf("Skylake theoretical BW = %.0f", sk.TheoreticalBandwidthGBs())
	}
	if _, err := mess.PlatformByName("Intel Skylake"); err != nil {
		t.Fatal(err)
	}
	if _, err := mess.PlatformByName("bogus"); err == nil {
		t.Fatal("bogus platform accepted")
	}
}

func TestCharacterizeAndPersist(t *testing.T) {
	spec := mess.CascadeLake()
	spec.Cores = 8 // trim for test speed
	spec.DRAM.Channels = 3
	res, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Family.Validate(); err != nil {
		t.Fatal(err)
	}

	var csv bytes.Buffer
	if err := res.Family.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	back, err := mess.ReadCurvesCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != res.Family.Label {
		t.Fatalf("label lost in round trip: %q", back.Label)
	}

	var chart bytes.Buffer
	if err := mess.PlotCurves(&chart, res.Family, 60, 14); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart.String(), "latency [ns]") {
		t.Fatal("plot missing axes annotation")
	}

	// A service with a curve store keeps the family across processes: a
	// second service on the same directory serves it without simulating.
	var direct bytes.Buffer
	if err := res.Family.WriteCSV(&direct); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	req := mess.CharacterizationRequest{Spec: spec, Options: mess.QuickBenchmarkOptions()}
	for pass, want := range []struct{ runs, diskHits int64 }{{1, 0}, {0, 1}} {
		store, err := mess.NewCurveStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := mess.NewCharacterizationService(mess.CharacterizationConfig{Store: store})
		art, err := svc.Characterize(req)
		if err != nil {
			t.Fatal(err)
		}
		if st := svc.Stats(); st.Runs != want.runs || st.DiskHits != want.diskHits {
			t.Fatalf("pass %d: %d runs and %d disk hits, want %d and %d", pass, st.Runs, st.DiskHits, want.runs, want.diskHits)
		}
		var stored bytes.Buffer
		if err := art.Family.WriteCSV(&stored); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored.Bytes(), direct.Bytes()) {
			t.Fatalf("pass %d: the stored family differs from the default service's", pass)
		}
	}
}

func TestCharacterizeServedFromCache(t *testing.T) {
	spec := mess.Power9()
	spec.Cores = 6
	spec.DRAM.Channels = 3

	before := mess.DefaultCharacterizationService().Stats()
	first, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := mess.DefaultCharacterizationService().Stats()

	if got := after.Runs - before.Runs; got != 1 {
		t.Fatalf("two identical Characterize calls ran %d simulations, want 1", got)
	}
	if after.MemoryHits-before.MemoryHits < 1 {
		t.Fatalf("second Characterize not served from cache: %+v -> %+v", before, after)
	}
	if len(second.Samples) != len(first.Samples) {
		t.Fatalf("cached result lost samples: %d vs %d", len(second.Samples), len(first.Samples))
	}
	// Results are isolated copies: mutating one must not leak into the next.
	second.Family.Label = "scribbled"
	third, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	if third.Family.Label == "scribbled" {
		t.Fatal("cached family shared mutable state across callers")
	}

	// A different sweep is a different key: it must simulate afresh.
	opt := mess.QuickBenchmarkOptions()
	opt.PacesNs = []float64{0, 32}
	if _, err := mess.Characterize(context.Background(), spec, opt); err != nil {
		t.Fatal(err)
	}
	final := mess.DefaultCharacterizationService().Stats()
	if got := final.Runs - after.Runs; got != 1 {
		t.Fatalf("changed options ran %d simulations, want 1 fresh run", got)
	}
}

func TestSimulatorFacade(t *testing.T) {
	fam := mustQuickFamily(t)
	eng := mess.NewEngine()
	model := mess.NewSimulator(eng, mess.SimulatorConfig{Family: fam})

	completed := 0
	var latSum mess.SimTime
	var line uint64
	var issue func()
	issue = func() {
		addr := (line%8)*(1<<28) + (line/8)*64
		line++
		start := eng.Now()
		model.Access(&mess.MemRequest{Addr: addr, Op: mess.MemRead, Done: func(at mess.SimTime, _ *mess.MemRequest) {
			completed++
			latSum += at - start
			if eng.Now() < mess.Millisecond {
				issue()
			}
		}})
	}
	for i := 0; i < 32; i++ {
		issue()
	}
	eng.RunUntil(mess.Millisecond)
	if completed == 0 {
		t.Fatal("no requests completed")
	}
	mean := (latSum / mess.SimTime(completed)).Nanoseconds()
	if mean < 40 || mean > 2000 {
		t.Fatalf("mean latency %.0f ns implausible", mean)
	}
}

var cachedFam *mess.Family

func mustQuickFamily(t *testing.T) *mess.Family {
	t.Helper()
	if cachedFam != nil {
		return cachedFam
	}
	spec := mess.Skylake()
	spec.Cores = 8
	spec.DRAM.Channels = 3
	res, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	cachedFam = res.Family
	return cachedFam
}

func TestMemoryModelZooFacade(t *testing.T) {
	if len(mess.MemoryModels()) < 8 {
		t.Fatal("zoo incomplete")
	}
	fam := mustQuickFamily(t)
	spec := mess.Skylake()
	for _, kind := range mess.MemoryModels() {
		eng := mess.NewEngine()
		m, err := mess.NewMemoryModel(kind, eng, spec, fam)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		done := false
		m.Access(&mess.MemRequest{Addr: 64, Op: mess.MemRead, Done: func(_ mess.SimTime, _ *mess.MemRequest) { done = true }})
		eng.RunUntil(10 * mess.Microsecond)
		if !done {
			t.Fatalf("%s did not complete a read", kind)
		}
	}
}

func TestWorkloadFacade(t *testing.T) {
	spec := mess.Skylake()
	spec.Cores = 6
	spec.DRAM.Channels = 3
	triad := mess.Kernel{Name: "triad", Loads: 2, Stores: 1, ElemsPerLine: 8, ALUPerElem: 4}
	r, err := mess.RunWorkload(spec, triad, mess.WorkloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.AppBWGBs <= 0 {
		t.Fatalf("triad result %+v", r)
	}
}

func TestProfilingFacade(t *testing.T) {
	spec := mess.CascadeLake()
	spec.Cores = 6
	spec.DRAM.Channels = 3
	fam := mustQuickFamily(t)

	app := mess.NewHPCGProxy(spec)
	sampler := mess.NewSampler(app.Eng, app.Counting, 10*mess.Microsecond)
	sampler.Start()
	app.Run(400 * mess.Microsecond)
	sampler.Stop()

	p := mess.BuildProfile("hpcg", fam, sampler.Windows(), app.Events(), mess.DefaultStressWeights)
	if len(p.Samples) == 0 {
		t.Fatal("no profile samples")
	}
	if p.MaxStress() <= 0 {
		t.Fatal("no stress measured")
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	exps := mess.Experiments()
	if len(exps) < 25 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	var unknown *mess.UnknownExperimentError
	if _, err := mess.RunExperiment(context.Background(), nil, "nope", mess.ScaleQuick); !errors.As(err, &unknown) || unknown.ID != "nope" {
		t.Fatalf("unknown experiment: err = %v, want an UnknownExperimentError naming it", err)
	}
	// A nil service is the default one: the experiment's reference curves
	// are simulated once however often it runs.
	before := mess.DefaultCharacterizationService().Stats().Runs
	res, err := mess.RunExperiment(context.Background(), nil, "fig2", mess.ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	first := mess.DefaultCharacterizationService().Stats().Runs
	if _, err := mess.RunExperiment(context.Background(), nil, "fig2", mess.ScaleQuick); err != nil {
		t.Fatal(err)
	}
	if again := mess.DefaultCharacterizationService().Stats().Runs; first == before || again != first {
		t.Fatalf("fig2 twice on the default service: %d, then %d characterizations simulated, want some, then none", first-before, again-first)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mess.RunExperiment(cancelled, mess.NewCharacterizationService(mess.CharacterizationConfig{}), "fig2", mess.ScaleQuick); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig2 under a cancelled context on a fresh service: err = %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Fatal("render missing paper reference")
	}
}

func TestUnloadedLatencyFacade(t *testing.T) {
	spec := mess.Skylake()
	spec.Cores = 4
	spec.DRAM.Channels = 2
	lat, err := mess.MeasureUnloadedLatency(spec)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 70 || lat > 110 {
		t.Fatalf("unloaded latency %.0f ns out of calibration", lat)
	}
}

// TestTraceReplayFacade drives the trace pipeline exactly as an external
// user would: capture from a running engine, round-trip through the text
// format, full replay, then sampled replay with divergence inside the
// reported error bars.
func TestTraceReplayFacade(t *testing.T) {
	spec := mess.Skylake()
	spec.Cores = 2
	spec.DRAM.Channels = 2

	// Build a synthetic trace through the public types. The arrival rate
	// stays below what the backend sustains — the sampling contract covers
	// quasi-stationary traffic, as captured closed-loop traces are.
	tr := &mess.Trace{}
	var at mess.SimTime
	for i := 0; i < 20000; i++ {
		if i%4 != 0 {
			at += mess.SimTime(10000 + (i%3)*4000) // 10–18 ns gaps
		}
		tr.Records = append(tr.Records, mess.TraceRecord{
			At:    at,
			Addr:  uint64((i*131)%65536) * 64,
			Write: i%5 == 0,
		})
	}

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := mess.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(tr.Records))
	}

	mk := func(eng *mess.Engine) mess.MemBackend {
		m, err := mess.NewMemoryModel("reference", eng, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	eng := mess.NewEngine()
	full := mess.ReplayTrace(eng, mk(eng), got)
	if full.Reads == 0 || full.BWGBs <= 0 {
		t.Fatalf("full replay produced %+v", full)
	}

	sam, err := mess.SampledReplayTrace(mk, spec, got, mess.TraceSampleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sam.DivergencePct(full); d > 5 {
		t.Errorf("sampled divergence %.1f%% > 5%%: full %+v sampled %+v", d, full, sam.Estimate)
	}
	if sam.SpeedupX < 2 {
		t.Errorf("speedup %.1f×, sampling saved no work", sam.SpeedupX)
	}
}
