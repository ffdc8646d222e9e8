package cxl

import (
	"reflect"
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.TxGBs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero link bandwidth accepted")
	}
}

func TestMaxTheoretical(t *testing.T) {
	cfg := Default()
	got := cfg.MaxTheoreticalGBs()
	// The paper's device: 43.6 GB/s best-mix maximum.
	if got < 41 || got > 46 {
		t.Fatalf("max theoretical = %.1f GB/s, want ≈43.6", got)
	}
}

func TestUnloadedReadLatency(t *testing.T) {
	eng := sim.New()
	e := New(eng, Default())
	var lat sim.Time
	e.Access(&mem.Request{Addr: 0, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { lat = at }})
	eng.Run()
	ns := lat.Nanoseconds()
	// Two propagation crossings + DDR access + flit time: ≈190 ns.
	if ns < 150 || ns > 260 {
		t.Fatalf("unloaded CXL read latency = %.0f ns, want ≈190", ns)
	}
}

// pump injects open-loop traffic with the given write fraction at maximum
// rate (bounded outstanding) and returns achieved GB/s.
func pump(writeFrac float64, dur sim.Time) float64 {
	eng := sim.New()
	e := New(eng, Default())
	outstanding := 0
	completed := 0
	var line uint64
	acc := 0.0
	var inject func()
	inject = func() {
		if eng.Now() >= dur {
			return
		}
		for outstanding < 192 {
			acc += writeFrac
			op := mem.Read
			if acc >= 1 {
				acc--
				op = mem.Write
			}
			addr := (line%8)*(1<<28+16<<10) + (line/8)*mem.LineSize
			line++
			outstanding++
			e.Access(&mem.Request{Addr: addr, Op: op, Done: func(_ sim.Time, _ *mem.Request) {
				outstanding--
				completed++
				inject()
			}})
		}
	}
	inject()
	eng.RunUntil(dur)
	return float64(completed*mem.LineSize) / dur.Seconds() / 1e9
}

func TestFullDuplexSignature(t *testing.T) {
	dur := 200 * sim.Microsecond
	pureRead := pump(0, dur)
	pureWrite := pump(1, dur)
	balanced := pump(0.5, dur)
	// The paper's headline CXL behaviour: balanced traffic beats both
	// pure directions, which saturate one link each (Sec. V-C).
	if balanced <= pureRead*1.15 {
		t.Fatalf("balanced %.1f GB/s not clearly above pure-read %.1f", balanced, pureRead)
	}
	if balanced <= pureWrite*1.15 {
		t.Fatalf("balanced %.1f GB/s not clearly above pure-write %.1f", balanced, pureWrite)
	}
	cfg := Default()
	// Single-direction traffic is link-limited near TxGBs/RxGBs.
	if pureRead > cfg.RxGBs*1.1 {
		t.Fatalf("pure-read %.1f exceeds RX link %.1f", pureRead, cfg.RxGBs)
	}
	if balanced > cfg.MaxTheoreticalGBs()*1.05 {
		t.Fatalf("balanced %.1f exceeds device maximum %.1f", balanced, cfg.MaxTheoreticalGBs())
	}
}

func quickSweep() SweepOptions {
	return SweepOptions{
		WriteFractions: []float64{0, 0.5, 1.0},
		RatesGBs:       []float64{2, 10, 20, 30, 40, 48},
		Warmup:         6 * sim.Microsecond,
		Measure:        20 * sim.Microsecond,
	}
}

func TestFamilyShape(t *testing.T) {
	fam := Family(quickSweep())
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fam.Curves) != 3 {
		t.Fatalf("curves = %d", len(fam.Curves))
	}
	balanced := fam.Nearest(0.5)
	pureRead := fam.Nearest(1.0)
	pureWrite := fam.Nearest(0.0)
	if balanced.MaxBW() <= pureRead.MaxBW() || balanced.MaxBW() <= pureWrite.MaxBW() {
		t.Fatalf("family lost the full-duplex signature: balanced %.1f, read %.1f, write %.1f",
			balanced.MaxBW(), pureRead.MaxBW(), pureWrite.MaxBW())
	}
	// Latency grows with load on every curve.
	for _, c := range fam.Curves {
		if c.MaxLatency() <= c.UnloadedLatency()*1.2 {
			t.Errorf("curve ratio %.2f shows no load sensitivity", c.ReadRatio)
		}
	}
}

func TestRemoteSocketContrast(t *testing.T) {
	cxlFam := Family(quickSweep())
	remote := RemoteSocketFamily(quickSweep())
	// Appendix B: the remote socket has a higher unloaded latency (≈28 ns
	// in the paper) but a higher saturated bandwidth than the CXL device.
	cxlRead := cxlFam.Nearest(1.0)
	remRead := remote.Nearest(1.0)
	dLat := remRead.UnloadedLatency() - cxlRead.UnloadedLatency()
	if dLat < 10 || dLat > 60 {
		t.Fatalf("remote−CXL unloaded latency delta = %.0f ns, want ≈28", dLat)
	}
	if remRead.MaxBW() <= cxlRead.MaxBW() {
		t.Fatalf("remote socket max BW %.1f not above CXL %.1f", remRead.MaxBW(), cxlRead.MaxBW())
	}
}

// TestWarmWorkersMatchFreshPoints pins the device sweep's reuse: a family
// measured by one worker (every point after the first on a used engine and
// pool), by more workers than points, and point by point on new engines must
// be identical — also when the engine and pool handed to a point still hold
// events and acquired records.
func TestWarmWorkersMatchFreshPoints(t *testing.T) {
	cfg := Default()
	mk := func(eng *sim.Engine) mem.Backend { return New(eng, cfg) }
	o := quickSweep()
	o = o.withDefaults(cfg.MaxTheoreticalGBs())
	nr := len(o.RatesGBs)

	o.Parallelism = 1
	serial := MeasureFamily(mk, "cxl", cfg.MaxTheoreticalGBs(), o)
	o.Parallelism = 64
	wide := MeasureFamily(mk, "cxl", cfg.MaxTheoreticalGBs(), o)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("family depends on the worker count:\n 1 worker: %+v\n64 workers: %+v", serial, wide)
	}

	// One engine and pool through the points in reverse, left dirty before
	// each, against a new pair per point.
	eng, pool := sim.New(), mem.NewRequestPool()
	for i := len(o.WriteFractions)*nr - 1; i >= 0; i-- {
		wf, rate := o.WriteFractions[i/nr], o.RatesGBs[i%nr]
		for k := 0; k < 40; k++ {
			pool.Get(uint64(k), mem.Write, nil)
			eng.Schedule(eng.Now()+sim.Time(k), func(sim.Time) { t.Error("an event of the previous point fired") })
		}
		warm := measureDevicePoint(eng, pool, mk, wf, rate, o)
		fresh := measureDevicePoint(sim.New(), mem.NewRequestPool(), mk, wf, rate, o)
		if warm != fresh {
			t.Fatalf("write fraction %v at %v GB/s: warm %+v, fresh %+v", wf, rate, warm, fresh)
		}
	}
}
