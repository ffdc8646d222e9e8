package memmodel

import (
	"slices"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

func spec() platform.Spec { return platform.ZSimSkylake() }

// drive keeps depth reads outstanding for dur and returns (bw GB/s, mean ns).
func driveModel(eng *sim.Engine, b mem.Backend, depth int, dur sim.Time) (float64, float64) {
	completed := 0
	var latSum sim.Time
	var line uint64
	var issue func()
	issue = func() {
		// Staggered stream bases: the 97-line offset avoids bank
		// aliasing in the replicas' modulo address mapping.
		addr := (line%64)*(1<<28+97*64) + (line/64)*mem.LineSize
		line++
		start := eng.Now()
		b.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) {
			completed++
			latSum += at - start
			if eng.Now() < dur {
				issue()
			}
		}})
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.RunUntil(dur)
	if completed == 0 {
		return 0, 0
	}
	return float64(completed*mem.LineSize) / dur.Seconds() / 1e9,
		(latSum / sim.Time(completed)).Nanoseconds()
}

func TestNewAllKinds(t *testing.T) {
	fam := core.NewSynthetic(core.SyntheticSpec{Label: "zoo"})
	for _, kind := range Kinds() {
		eng := sim.New()
		m, err := New(kind, eng, spec(), fam)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var done bool
		m.Access(&mem.Request{Addr: 64, Op: mem.Read, Done: func(_ sim.Time, _ *mem.Request) { done = true }})
		eng.RunUntil(10 * sim.Microsecond)
		if !done {
			t.Fatalf("%s never completed a read", kind)
		}
	}
}

func TestMessKindNeedsFamily(t *testing.T) {
	if _, err := New(KindMess, sim.New(), spec(), nil); err == nil {
		t.Fatal("mess model accepted nil family")
	}
	if _, err := New(Kind("bogus"), sim.New(), spec(), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFixedUnlimitedBandwidth(t *testing.T) {
	eng := sim.New()
	m := NewFixed(eng, sim.FromNanoseconds(45))
	bw, lat := driveModel(eng, m, 512, 100*sim.Microsecond)
	theor := spec().TheoreticalBandwidthGBs()
	if bw < 2*theor {
		t.Fatalf("fixed model bandwidth %.0f GB/s does not exceed theoretical %.0f — paper measures 2.7×", bw, theor)
	}
	if lat != 45 {
		t.Fatalf("fixed latency %.1f, want 45", lat)
	}
}

func TestMD1LinearThenSaturates(t *testing.T) {
	s := spec()
	light := func() (float64, float64) {
		eng := sim.New()
		return driveModel(eng, NewMD1(eng, s), 4, 100*sim.Microsecond)
	}
	heavy := func() (float64, float64) {
		eng := sim.New()
		return driveModel(eng, NewMD1(eng, s), 1024, 100*sim.Microsecond)
	}
	_, lightLat := light()
	heavyBW, heavyLat := heavy()
	theor := s.TheoreticalBandwidthGBs()
	if heavyBW > theor*1.01 {
		t.Fatalf("M/D/1 bandwidth %.0f exceeds theoretical %.0f", heavyBW, theor)
	}
	if heavyBW < theor*0.9 {
		t.Fatalf("M/D/1 saturated bandwidth %.0f too far below theoretical %.0f", heavyBW, theor)
	}
	if heavyLat < 2*lightLat {
		t.Fatalf("M/D/1 queueing missing: %.0f → %.0f ns", lightLat, heavyLat)
	}
}

func TestInternalDDRUnderestimatesBandwidth(t *testing.T) {
	// Per-stream closed loops (sequential lines, bounded MLP per stream)
	// reproduce how cores actually drive the model; idealized round-robin
	// arrival would hide the limited reordering that caps it.
	s := spec()
	eng := sim.New()
	m := NewInternalDDR(eng, s)
	dur := 200 * sim.Microsecond
	completed := 0
	for st := 0; st < 24; st++ {
		next := uint64(st) * (1<<28 + 97*64)
		var issue func()
		issue = func() {
			addr := next
			next += mem.LineSize
			m.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(_ sim.Time, _ *mem.Request) {
				completed++
				if eng.Now() < dur {
					issue()
				}
			}})
		}
		for i := 0; i < 16; i++ {
			issue()
		}
	}
	eng.RunUntil(dur)
	bw := float64(completed*mem.LineSize) / dur.Seconds() / 1e9
	theor := s.TheoreticalBandwidthGBs()
	// Paper: 69–93 GB/s of a 128 GB/s system (54–73%).
	if bw > 0.85*theor {
		t.Fatalf("internal DDR bandwidth %.0f not under-estimated (theoretical %.0f)", bw, theor)
	}
	if bw < 0.3*theor {
		t.Fatalf("internal DDR bandwidth %.0f implausibly low", bw)
	}
}

func TestInternalDDRPenalizesWrites(t *testing.T) {
	s := spec()
	run := func(writeEvery int) float64 {
		eng := sim.New()
		m := NewInternalDDR(eng, s)
		completed := 0
		var line uint64
		dur := 100 * sim.Microsecond
		var issue func()
		issue = func() {
			op := mem.Read
			if writeEvery > 0 && line%uint64(writeEvery) == 0 {
				op = mem.Write
			}
			addr := (line%64)*(1<<28+97*64) + line/64*mem.LineSize
			line++
			m.Access(&mem.Request{Addr: addr, Op: op, Done: func(_ sim.Time, _ *mem.Request) {
				completed++
				if eng.Now() < dur {
					issue()
				}
			}})
		}
		for i := 0; i < 256; i++ {
			issue()
		}
		eng.RunUntil(dur)
		return float64(completed*mem.LineSize) / dur.Seconds() / 1e9
	}
	readsOnly := run(0)
	mixed := run(2)
	if mixed > readsOnly*0.9 {
		t.Fatalf("write penalty missing: reads %.0f vs mixed %.0f GB/s", readsOnly, mixed)
	}
}

func TestDRAMsim3NoSaturationAndCappedBW(t *testing.T) {
	s := spec()
	eng := sim.New()
	m := NewDRAMsim3Like(eng, s)
	// Depth 256 matches the outstanding-line budget of the ZSim Skylake
	// cores that drive the replica in the paper's experiments. (At
	// absurd depths any bandwidth-capped model must show Little's-law
	// queueing; the paper's curves were measured below that regime.)
	bw, lat := driveModel(eng, m, 256, 200*sim.Microsecond)
	theor := s.TheoreticalBandwidthGBs()
	if bw > 0.92*theor {
		t.Fatalf("DRAMsim3 replica bandwidth %.0f above its 88%% cap of %.0f", bw, theor)
	}
	if bw < 0.8*theor {
		t.Fatalf("DRAMsim3 replica bandwidth %.0f below its cap — it should reach it linearly", bw)
	}
	// No saturation knee: latency stays within the linear band even at
	// the bandwidth cap (paper Fig. 6b: ≈110–130 ns), far below what the
	// reference system shows when saturated (≈400+ ns).
	if lat > 250 {
		t.Fatalf("DRAMsim3 replica latency %.0f ns shows a saturation knee it should not have", lat)
	}
	hit, _, _ := m.RowStats().Ratios()
	if hit < 0.7 {
		t.Fatalf("DRAMsim3 replica hit rate %.2f not pinned high", hit)
	}
}

func TestRamulatorFlatLatency(t *testing.T) {
	s := spec()
	eng := sim.New()
	m := NewRamulatorLike(eng, s)
	bwLight, latLight := driveModel(eng, m, 4, 50*sim.Microsecond)
	eng2 := sim.New()
	m2 := NewRamulatorLike(eng2, s)
	bwHeavy, latHeavy := driveModel(eng2, m2, 2048, 50*sim.Microsecond)
	if latLight != 25 || latHeavy != 25 {
		t.Fatalf("Ramulator replica latency %v/%v, want flat 25 ns", latLight, latHeavy)
	}
	if bwHeavy < s.TheoreticalBandwidthGBs()*1.5 {
		t.Fatalf("Ramulator replica heavy bandwidth %.0f should exceed theoretical ×1.5 (paper: 1.8×)", bwHeavy)
	}
	_ = bwLight
}

func TestRamulator2BandwidthWall(t *testing.T) {
	s := platform.Gem5Graviton3()
	eng := sim.New()
	m := NewRamulator2Like(eng, s)
	bw, _ := driveModel(eng, m, 2048, 100*sim.Microsecond)
	theor := s.TheoreticalBandwidthGBs()
	if bw > 0.45*theor {
		t.Fatalf("Ramulator 2 replica bandwidth %.0f above its wall (41%% of %.0f)", bw, theor)
	}
	if bw < 0.3*theor {
		t.Fatalf("Ramulator 2 replica bandwidth %.0f below its wall", bw)
	}
}

func TestMidnessShape(t *testing.T) {
	if midness(1.0) != 0 || midness(0.5) != 0 {
		t.Fatal("dominant traffic should have zero midness")
	}
	if midness(0.75) != 1 {
		t.Fatal("balanced-intermediate traffic should have midness 1")
	}
}

// completions drives a fixed mixed request stream into the backend — bursts
// of eight across channels and banks, every fifth a write — and returns
// every completion instant in completion order.
func completions(eng *sim.Engine, b mem.Backend) []sim.Time {
	var log []sim.Time
	done := func(at sim.Time, _ *mem.Request) { log = append(log, at) }
	for i := uint64(0); i < 400; i++ {
		addr, op := (i*97%4096)*mem.LineSize, mem.Read
		if i%5 == 4 {
			op = mem.Write
		}
		eng.Schedule(sim.Time(i/8)*20*sim.Nanosecond, func() {
			b.Access(&mem.Request{Addr: addr, Op: op, Done: done})
		})
	}
	eng.RunUntil(50 * sim.Microsecond)
	return log
}

func TestFactory(t *testing.T) {
	fam := core.NewSynthetic(core.SyntheticSpec{Label: "zoo"})
	for _, kind := range Kinds() {
		mk, err := Factory(kind, spec(), fam)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// One factory serves any number of engines, each model equal to
		// the one New builds.
		engF, engN := sim.New(), sim.New()
		m, err := New(kind, engN, spec(), fam)
		if err != nil {
			t.Fatalf("%s: New: %v", kind, err)
		}
		got, want := completions(engF, mk(engF)), completions(engN, m)
		if len(got) != 400 {
			t.Errorf("%s: %d of 400 requests completed", kind, len(got))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Factory's model and New's complete the same stream at different instants", kind)
		}
	}

	_, err := Factory("bogus", spec(), fam)
	if err == nil || !strings.Contains(err.Error(), `unknown model kind "bogus"`) || !strings.Contains(err.Error(), "internal-ddr") {
		t.Errorf("unknown kind: err = %v, want it named beside the kinds there are", err)
	}
	if _, err := Factory(KindMess, spec(), nil); err == nil {
		t.Error("the mess kind resolved without a curve family")
	}
	if _, err := Factory(KindMess, spec(), &core.Family{}); err == nil {
		t.Error("the mess kind resolved with an empty curve family")
	}
	if _, err := Factory(KindFixed, spec(), nil); err != nil {
		t.Errorf("a baseline kind needs no family: %v", err)
	}
}
