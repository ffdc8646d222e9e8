package platform

import (
	"math"
	"testing"
)

func TestAllPlatformsValid(t *testing.T) {
	specs := All()
	if len(specs) != 8 {
		t.Fatalf("platform count = %d, want the 8 of Table I", len(specs))
	}
	for _, s := range specs {
		if err := s.DRAM.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Cores <= 0 || s.FreqGHz <= 0 || s.MSHRs <= 0 {
			t.Errorf("%s: incomplete spec %+v", s.Name, s)
		}
		if s.UnloadedLatencyNs <= 0 {
			t.Errorf("%s: missing calibration target", s.Name)
		}
	}
}

func TestTheoreticalBandwidths(t *testing.T) {
	// Table I's theoretical bandwidth column.
	want := map[string]float64{
		"Intel Skylake":         128,
		"Intel Cascade Lake":    128,
		"AMD Zen 2":             204,
		"IBM Power 9":           170,
		"Amazon Graviton 3":     307,
		"Intel Sapphire Rapids": 307,
		"Fujitsu A64FX":         1024,
		"NVIDIA H100":           1631,
	}
	for _, s := range All() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected platform %q", s.Name)
			continue
		}
		got := s.TheoreticalBandwidthGBs()
		if math.Abs(got-w)/w > 0.03 {
			t.Errorf("%s theoretical BW = %.0f GB/s, want %.0f", s.Name, got, w)
		}
	}
}

func TestSaturationHeadroom(t *testing.T) {
	// Each platform's cores must be able to saturate its memory: the
	// outstanding-line budget (cores × MSHRs × 64 B) must cover the
	// bandwidth-delay product at the unloaded latency.
	for _, s := range All() {
		demand := s.TheoreticalBandwidthGBs() * 1e9 * s.UnloadedLatencyNs * 1e-9 // bytes in flight needed
		budget := float64(s.Cores*s.MSHRs) * 64
		if budget < demand*0.8 {
			t.Errorf("%s: MSHR budget %.0f B cannot cover BW×latency %.0f B", s.Name, budget, demand)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Fujitsu A64FX")
	if err != nil || s.Name != "Fujitsu A64FX" {
		t.Fatalf("lookup failed: %v %v", s, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("bogus platform accepted")
	}
}

func TestCycleTime(t *testing.T) {
	s := Skylake()
	// 2.1 GHz → 476 ps.
	if ct := s.CycleTime(); ct < 470 || ct > 480 {
		t.Fatalf("cycle time = %v ps", ct)
	}
}

func TestSimulatorVariants(t *testing.T) {
	op := OpenPitonAriane()
	if op.MSHRs != 2 {
		t.Fatalf("OpenPiton Ariane MSHRs = %d, want 2 (Sec. IV-C)", op.MSHRs)
	}
	if z := ZSimSkylake(); z.DRAM.Channels != 6 {
		t.Fatalf("ZSim Skylake channels = %d", z.DRAM.Channels)
	}
	if g := Gem5Graviton3(); g.Cores != 64 {
		t.Fatalf("gem5 Graviton 3 cores = %d", g.Cores)
	}
}
