package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// miniPlatform is a scaled-down Skylake-like machine that keeps test
// runtimes low: 8 cores, 2 DDR4 channels.
func miniPlatform() platform.Spec {
	return platform.Spec{
		Name: "mini-skylake", Cores: 8, FreqGHz: 2.1,
		DRAM:              dram.DDR4(2666, 2, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     sim.FromNanoseconds(44.5),
		MSHRs:             16,
		WriteBufs:         20,
		UnloadedLatencyNs: 89,
	}
}

func TestUnloadedLatencyMatchesCalibration(t *testing.T) {
	spec := miniPlatform()
	lat, err := MeasureUnloaded(spec, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lat < spec.UnloadedLatencyNs*0.9 || lat > spec.UnloadedLatencyNs*1.1 {
		t.Fatalf("unloaded latency = %.1f ns, want %.0f ±10%%", lat, spec.UnloadedLatencyNs)
	}
}

func TestBenchmarkProducesFamily(t *testing.T) {
	spec := miniPlatform()
	res, err := Run(spec, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	fam := res.Family
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fam.Curves) != 3 {
		t.Fatalf("curves = %d, want 3 (one per mix)", len(fam.Curves))
	}

	m := fam.Metrics()
	peak := spec.TheoreticalBandwidthGBs()
	if m.SatBWHighGBs > peak {
		t.Fatalf("measured max bandwidth %.1f exceeds theoretical %.1f", m.SatBWHighGBs, peak)
	}
	if m.SatBWHighGBs < 0.6*peak {
		t.Fatalf("measured max bandwidth %.1f below 60%% of theoretical %.1f — generators cannot load the system", m.SatBWHighGBs, peak)
	}
	if m.UnloadedLatencyNs < 60 || m.UnloadedLatencyNs > 130 {
		t.Fatalf("unloaded latency %.1f ns implausible", m.UnloadedLatencyNs)
	}

	// The defining hardware behaviour (Sec. II-C): pure-read traffic
	// reaches the highest bandwidth; write traffic saturates sooner.
	readCurve := fam.Nearest(1.0)
	writeCurve := fam.Nearest(0.5)
	if readCurve.ReadRatio <= writeCurve.ReadRatio {
		t.Fatalf("curve ratios not separated: %v vs %v", readCurve.ReadRatio, writeCurve.ReadRatio)
	}
	if readCurve.MaxBW() <= writeCurve.MaxBW() {
		t.Fatalf("100%%-read max BW %.1f not above 50/50 max BW %.1f",
			readCurve.MaxBW(), writeCurve.MaxBW())
	}
}

func TestWriteAllocateRatioMapping(t *testing.T) {
	// A 100%-store kernel must generate ≈50% read / 50% write traffic
	// under write-allocate (each store = RFO read + writeback), per
	// Sec. II-A of the paper.
	spec := miniPlatform()
	opt := QuickOptions()
	opt.Mixes = []Mix{{StorePercent: 100}}
	opt.PacesNs = []float64{4}
	res, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Samples[0].RdRatio
	if r < 0.45 || r > 0.58 {
		t.Fatalf("100%%-store kernel produced read ratio %.2f, want ≈0.5", r)
	}
}

func TestNonTemporalReachesWriteHeavyTraffic(t *testing.T) {
	spec := miniPlatform()
	opt := QuickOptions()
	opt.Mixes = []Mix{{StorePercent: 100, NonTemporal: true}}
	opt.PacesNs = []float64{4}
	res, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Samples[0].RdRatio
	// The chaser still reads, so the ratio is near but not exactly 0.
	if r > 0.2 {
		t.Fatalf("100%% NT-store kernel produced read ratio %.2f, want < 0.2", r)
	}
}

func TestLatencyGrowsWithPressure(t *testing.T) {
	spec := miniPlatform()
	opt := QuickOptions()
	opt.Mixes = []Mix{{StorePercent: 0}}
	res, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Family.Nearest(1.0)
	first := c.Points[0]
	last := c.Points[len(c.Points)-1]
	if last.Latency <= first.Latency {
		t.Fatalf("latency did not grow with pressure: %.1f → %.1f ns", first.Latency, last.Latency)
	}
	if last.BW <= first.BW {
		t.Fatalf("bandwidth did not grow with pressure: %.1f → %.1f GB/s", first.BW, last.BW)
	}
}

func TestRowStatsReported(t *testing.T) {
	spec := miniPlatform()
	opt := QuickOptions()
	opt.Mixes = []Mix{{StorePercent: 0}}
	opt.PacesNs = []float64{0, 128}
	res, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		total := s.RowHit + s.RowEmpty + s.RowMiss
		if total < 0.99 || total > 1.01 {
			t.Fatalf("row stats fractions sum to %.2f at pace %.0f", total, s.PaceNs)
		}
	}
}

func TestOpenPitonBugDetection(t *testing.T) {
	// The Sec. IV-C discovery: with the coherency bug enabled, the Mess
	// benchmark observes far more write traffic than the kernel mix can
	// explain. A pure-load kernel should produce ~0% writes; the bugged
	// hierarchy shows ~50%.
	spec := miniPlatform()
	spec.Name = "mini-openpiton-bugged"
	opt := QuickOptions()
	opt.Mixes = []Mix{{StorePercent: 0}}
	opt.PacesNs = []float64{8}

	healthy, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r := healthy.Samples[0].RdRatio; r < 0.97 {
		t.Fatalf("healthy pure-load read ratio = %.2f, want ≈1", r)
	}

	cacheCfg := spec.CacheConfig()
	cacheCfg.EvictCleanAsDirty = true
	opt.Cache = &cacheCfg
	res2, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r := res2.Samples[0].RdRatio; r > 0.8 {
		t.Fatalf("bugged pure-load read ratio = %.2f, want well below 1 (excess writebacks)", r)
	}
}

// TestRunContextCancellation is the worker-pool half of the cancellation
// contract: a cancelled sweep returns the context error in bounded time
// (each worker finishes at most the point it is simulating) and leaves no
// goroutine behind.
func TestRunContextCancellation(t *testing.T) {
	spec := miniPlatform()
	opt := QuickOptions()
	opt.Parallelism = 2

	before := runtime.NumGoroutine()

	// Cancel mid-sweep: the quick sweep is dozens of points, so a few
	// milliseconds lands inside it.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, spec, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial Result")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep took %v to unwind — workers not draining", elapsed)
	}

	// An already-cancelled context never starts simulating.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	start = time.Now()
	if _, err := RunContext(done, spec, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run err = %v, want Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("pre-cancelled run still swept")
	}

	// No leaked workers: the goroutine count settles back to the baseline
	// (with slack for runtime background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
		t.Fatalf("goroutines leaked by cancelled runs: %d before, %d after", before, n)
	}
}

func TestOptionsNormalized(t *testing.T) {
	// The zero value is the paper's sweep, and it and an explicit spelling
	// of every default must normalize identically — that equivalence is
	// what makes Options usable as cache-key material.
	zero := Options{}.Normalized()
	explicit := Options{
		PacesNs: []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768},
		Warmup:  20 * sim.Microsecond,
		Measure: 50 * sim.Microsecond,
	}
	for s := 0; s <= 100; s += 10 {
		explicit.Mixes = append(explicit.Mixes, Mix{StorePercent: s})
	}
	for _, s := range []int{40, 70, 100} {
		explicit.Mixes = append(explicit.Mixes, Mix{StorePercent: s, NonTemporal: true})
	}
	got := explicit.Normalized()
	if fmt.Sprint(zero) != fmt.Sprint(got) {
		t.Fatalf("explicit defaults normalize differently:\nzero:     %+v\nexplicit: %+v", zero, got)
	}

	// Execution-only knobs are cleared regardless of input.
	o := Options{Parallelism: 12, Backend: func(eng *sim.Engine) mem.Backend { return nil }}
	n := o.Normalized()
	if n.Parallelism != 0 || n.Backend != nil {
		t.Fatalf("Parallelism/Backend leaked through normalization: %+v", n)
	}
	// Normalization must not mutate the receiver.
	if o.Parallelism != 12 || o.Backend == nil {
		t.Fatalf("Normalized mutated its receiver: %+v", o)
	}
}
