package profile

import (
	"bytes"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// stubBackend responds instantly; traffic is injected manually.
type stubBackend struct{}

func (stubBackend) Access(req *mem.Request) {}

func fam() *core.Family {
	return core.NewSynthetic(core.SyntheticSpec{Label: "prof", UnloadedNs: 90, PeakGBs: 128})
}

func TestSamplerWindows(t *testing.T) {
	eng := sim.New()
	counting := mem.NewCounting(stubBackend{})
	s := NewSampler(eng, counting, 10*sim.Microsecond)
	s.Start()
	// Inject 64 B every 100 ns → 0.64 GB/s.
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * 100 * sim.Nanosecond
		eng.Schedule(at, func(sim.Time) {
			counting.Access(&mem.Request{Addr: 0, Op: mem.Read})
		})
	}
	eng.RunUntil(100 * sim.Microsecond)
	s.Stop()
	ws := s.Windows()
	if len(ws) != 10 {
		t.Fatalf("windows = %d, want 10", len(ws))
	}
	for i, w := range ws {
		if w.End-w.Start != 10*sim.Microsecond {
			t.Fatalf("window %d duration %v", i, w.End-w.Start)
		}
		bw := w.Traffic.BandwidthGBs(w.End - w.Start)
		if bw < 0.5 || bw > 0.8 {
			t.Fatalf("window %d bandwidth %.2f GB/s, want ≈0.64", i, bw)
		}
	}
}

func TestSamplerStopCancels(t *testing.T) {
	eng := sim.New()
	counting := mem.NewCounting(stubBackend{})
	s := NewSampler(eng, counting, sim.Microsecond)
	s.Start()
	eng.RunUntil(3 * sim.Microsecond)
	s.Stop()
	n := len(s.Windows())
	eng.RunUntil(10 * sim.Microsecond)
	if len(s.Windows()) != n {
		t.Fatal("sampler kept sampling after Stop")
	}
}

// A Sampler holds at most one expiry. Start after a Stop whose expiry is
// still queued reuses that expiry instead of queuing a second; an expiry
// that fires while stopped records nothing and lets the next Start queue
// afresh.
func TestSamplerRestartKeepsOneExpiry(t *testing.T) {
	eng := sim.New()
	us := sim.Microsecond
	s := NewSampler(eng, mem.NewCounting(stubBackend{}), us)
	s.Start()
	eng.RunUntil(2*us + us/2)
	s.Stop()
	s.Start() // the expiry at 3 µs is still queued
	eng.RunUntil(6 * us)
	s.Stop()
	eng.RunUntil(8*us + us/2) // the expiry at 7 µs fires, stopped
	s.Start()
	eng.RunUntil(11*us + us/2)
	want := []CounterWindow{
		{Start: 0, End: us}, {Start: us, End: 2 * us},
		{Start: 2*us + us/2, End: 3 * us}, {Start: 3 * us, End: 4 * us},
		{Start: 4 * us, End: 5 * us}, {Start: 5 * us, End: 6 * us},
		{Start: 8*us + us/2, End: 9*us + us/2}, {Start: 9*us + us/2, End: 10*us + us/2},
		{Start: 10*us + us/2, End: 11*us + us/2},
	}
	got := s.Windows()
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Fatalf("window %d spans %v–%v, want %v–%v", i, got[i].Start, got[i].End, want[i].Start, want[i].End)
		}
	}
}

func mkWindows() []CounterWindow {
	var ws []CounterWindow
	// Three windows: idle, moderate, saturated.
	mk := func(i int, gbPerS float64) CounterWindow {
		start := sim.Time(i) * 10 * sim.Microsecond
		bytes := uint64(gbPerS * 1e9 * (10 * sim.Microsecond).Seconds())
		return CounterWindow{
			Start:   start,
			End:     start + 10*sim.Microsecond,
			Traffic: mem.Counters{Reads: bytes / 64, ReadBytes: bytes},
		}
	}
	ws = append(ws, mk(0, 1), mk(1, 60), mk(2, 110))
	return ws
}

func TestBuildProfileStressOrdering(t *testing.T) {
	p := Build("test", fam(), mkWindows(), nil, core.DefaultStressWeights)
	if len(p.Samples) != 3 {
		t.Fatalf("samples = %d", len(p.Samples))
	}
	if !(p.Samples[0].Stress < p.Samples[1].Stress && p.Samples[1].Stress < p.Samples[2].Stress) {
		t.Fatalf("stress not monotone with load: %v %v %v",
			p.Samples[0].Stress, p.Samples[1].Stress, p.Samples[2].Stress)
	}
	if p.Samples[0].Stress > 0.15 {
		t.Errorf("idle stress %.2f too high", p.Samples[0].Stress)
	}
	if p.Samples[2].Stress < 0.5 {
		t.Errorf("saturated stress %.2f too low", p.Samples[2].Stress)
	}
	if p.MaxStress() != p.Samples[2].Stress {
		t.Error("MaxStress mismatch")
	}
}

func TestPhaseAttribution(t *testing.T) {
	phases := []PhaseSpan{
		{Name: "compute", Start: 0, End: 15 * sim.Microsecond},
		{Name: "mpi", Start: 15 * sim.Microsecond, End: 22 * sim.Microsecond, MPI: true},
		{Name: "compute2", Start: 22 * sim.Microsecond, End: 40 * sim.Microsecond},
	}
	p := Build("test", fam(), mkWindows(), phases, core.DefaultStressWeights)
	if p.Samples[0].Phase != "compute" {
		t.Fatalf("window 0 phase %q", p.Samples[0].Phase)
	}
	// Window 1 spans 10-20 µs: compute overlaps 5 µs, mpi 5 µs; the tie
	// goes to the larger overlap (equal here, first wins).
	if p.Samples[1].Phase == "" {
		t.Fatal("window 1 unattributed")
	}
	if p.Samples[2].Phase != "compute2" {
		t.Fatalf("window 2 phase %q", p.Samples[2].Phase)
	}
}

func TestSaturatedFraction(t *testing.T) {
	p := Build("test", fam(), mkWindows(), nil, core.DefaultStressWeights)
	frac := p.SaturatedFraction()
	// Only the 110 GB/s window is past the synthetic onset (~97 GB/s).
	if frac < 0.2 || frac > 0.5 {
		t.Fatalf("saturated fraction = %.2f, want 1/3", frac)
	}
}

func TestMeanStressByPhase(t *testing.T) {
	phases := []PhaseSpan{
		{Name: "a", Start: 0, End: 10 * sim.Microsecond},
		{Name: "b", Start: 10 * sim.Microsecond, End: 30 * sim.Microsecond},
	}
	p := Build("test", fam(), mkWindows(), phases, core.DefaultStressWeights)
	order, by := p.MeanStressByPhase()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("phase order %v", order)
	}
	if by["b"] <= by["a"] {
		t.Fatalf("loaded phase stress %v not above idle %v", by["b"], by["a"])
	}
}

func TestWriteTrace(t *testing.T) {
	p := Build("test", fam(), mkWindows(), []PhaseSpan{
		{Name: "k", Start: 0, End: 40 * sim.Microsecond},
	}, core.DefaultStressWeights)
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# mess profile: test") {
		t.Fatal("missing header")
	}
	lines := strings.Count(out, "sample:")
	if lines != 3 {
		t.Fatalf("trace has %d sample lines, want 3", lines)
	}
	if !strings.Contains(out, ":k") {
		t.Fatal("phase missing from trace record")
	}
}

func TestSamplerRejectsBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period accepted")
		}
	}()
	NewSampler(sim.New(), mem.NewCounting(stubBackend{}), 0)
}
