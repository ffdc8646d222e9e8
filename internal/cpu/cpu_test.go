package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// fixedBackend completes every request after a constant delay.
type fixedBackend struct {
	eng   *sim.Engine
	delay sim.Time
	c     mem.Counters
}

func (f *fixedBackend) Access(req *mem.Request) {
	f.c.Add(req.Op, mem.LineSize)
	req.CompleteAt(f.eng, f.eng.Now()+f.delay)
}

func rig(memLat sim.Time, ccfg cache.Config) (*sim.Engine, *fixedBackend, *cache.Hierarchy) {
	eng := sim.New()
	b := &fixedBackend{eng: eng, delay: memLat}
	h := cache.New(eng, ccfg, b)
	return eng, b, h
}

func TestChaserSerializesLoads(t *testing.T) {
	memLat := 80 * sim.Nanosecond
	eng, b, h := rig(memLat, cache.Config{OnChipLatency: 20 * sim.Nanosecond})
	ch := NewChaser(eng, h.Port(), 0, 1<<12, 7)
	ch.Start()
	eng.RunUntil(100 * sim.Microsecond)
	ch.Stop()
	lat, n := ch.MeanLatency()
	if n == 0 {
		t.Fatal("no hops")
	}
	want := 100.0 // 80 memory + 20 on-chip
	if math.Abs(lat.Nanoseconds()-want) > 0.5 {
		t.Fatalf("chase latency = %.1f ns, want %.1f", lat.Nanoseconds(), want)
	}
	// Serialization: hops ≈ duration / (latency + hopOverhead).
	expected := float64(100*sim.Microsecond) / float64(lat+sim.Nanosecond/2)
	if math.Abs(float64(n)-expected) > expected*0.05 {
		t.Fatalf("hops = %d, want ≈%.0f (dependent loads must serialize)", n, expected)
	}
	if b.c.Writes != 0 {
		t.Fatal("chaser generated write traffic")
	}
}

func TestChaserVisitsAllLines(t *testing.T) {
	// The affine walk must visit every line exactly once per period.
	lines := uint64(1 << 10)
	c := NewChaser(sim.New(), nil, 0, lines, 3)
	seen := make(map[uint64]bool, lines)
	cur := c.cur
	for i := uint64(0); i < lines; i++ {
		cur = (c.mult*cur + c.inc) % lines
		if seen[cur] {
			t.Fatalf("line %d revisited at step %d — walk not full-period", cur, i)
		}
		seen[cur] = true
	}
	if len(seen) != int(lines) {
		t.Fatalf("visited %d lines, want %d", len(seen), lines)
	}
}

func TestChaserRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two line count accepted")
		}
	}()
	NewChaser(sim.New(), nil, 0, 1000, 0)
}

func TestGeneratorPacingControlsRate(t *testing.T) {
	run := func(paceNs float64) uint64 {
		eng, b, h := rig(50*sim.Nanosecond, cache.Config{MSHRs: 16, WriteBufs: 16})
		g := NewGenerator(eng, h.Port(), GenConfig{
			StorePercent: 0,
			PacePerOp:    sim.FromNanoseconds(paceNs),
			LoadBase:     1 << 30,
			StoreBase:    1 << 31,
			ArrayBytes:   1 << 24,
		})
		g.Start()
		eng.RunUntil(50 * sim.Microsecond)
		g.Stop()
		return b.c.Reads // every op is a load, and every load a miss
	}
	fast := run(0)
	slow := run(64)
	if fast < 4*slow {
		t.Fatalf("pacing ineffective: %d ops at pace 0 vs %d at pace 64", fast, slow)
	}
	// At pace 64 ns the rate is ≈ 1 op / 64.5 ns → ≈775 ops in 50 µs.
	if slow < 600 || slow > 900 {
		t.Fatalf("paced rate = %d ops in 50 µs, want ≈775", slow)
	}
}

func TestGeneratorMixPattern(t *testing.T) {
	prop := func(pctRaw uint8) bool {
		pct := int(pctRaw) % 101
		p := mixPattern(pct)
		stores := 0
		for _, s := range p {
			if s {
				stores++
			}
		}
		return stores == pct
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 101}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorStoreTrafficAmplification(t *testing.T) {
	eng, b, h := rig(50*sim.Nanosecond, cache.Config{
		Policy: cache.WriteAllocate, MSHRs: 16, WriteBufs: 16,
	})
	g := NewGenerator(eng, h.Port(), GenConfig{
		StorePercent: 100,
		LoadBase:     1 << 30,
		StoreBase:    1 << 31,
		ArrayBytes:   1 << 24,
	})
	g.Start()
	eng.RunUntil(50 * sim.Microsecond)
	g.Stop()
	eng.RunUntil(60 * sim.Microsecond)
	if b.c.Reads == 0 || b.c.Writes == 0 {
		t.Fatalf("store stream produced %v", b.c)
	}
	ratio := float64(b.c.Reads) / float64(b.c.Writes)
	if ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("RFO/writeback ratio = %.2f, want ≈1 (each store = 1 read + 1 write)", ratio)
	}
}

func TestKernelCoreStreamIPC(t *testing.T) {
	// With a fast memory system, STREAM IPC approaches the ALU width
	// bound; with a slow one it collapses. The mechanistic model must
	// show that contrast.
	run := func(memLat sim.Time, mshrs int) float64 {
		eng, _, h := rig(memLat, cache.Config{MSHRs: mshrs, WriteBufs: mshrs + 4})
		core := NewKernelCore(eng, h.Port(), StreamTriad, CoreConfig{
			CycleTime:  sim.FromNanoseconds(0.5),
			ArrayBases: []uint64{1 << 30, 1 << 31, 1 << 32},
			ArrayBytes: 1 << 24,
		})
		core.Start()
		eng.RunUntil(20 * sim.Microsecond)
		core.ResetStats()
		eng.RunUntil(100 * sim.Microsecond)
		ipc := core.IPC()
		core.Stop()
		return ipc
	}
	fast := run(5*sim.Nanosecond, 16)
	slow := run(400*sim.Nanosecond, 2)
	if fast < 2*slow {
		t.Fatalf("memory latency did not gate STREAM IPC: fast %.2f vs slow %.2f", fast, slow)
	}
	if fast <= 0 || fast > 4.5 {
		t.Fatalf("fast IPC = %.2f outside sane range", fast)
	}
}

// A non-dependent core runs no event of its own when its loads and RFOs
// complete off chip: every stall is released through the port's OnFree
// hook, so a resume at completion would do nothing. The engine's events are
// then the on-chip hop and the completion of each memory access, plus at
// most one pacing wake per line-step.
func TestKernelCoreSchedulesNoResume(t *testing.T) {
	eng, b, h := rig(80*sim.Nanosecond, cache.Config{OnChipLatency: 20 * sim.Nanosecond, MSHRs: 6, WriteBufs: 8})
	core := NewKernelCore(eng, h.Port(), StreamTriad, CoreConfig{
		CycleTime:  sim.FromNanoseconds(0.5),
		ArrayBases: []uint64{1 << 30, 1 << 31, 1 << 32},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	eng.RunUntil(40 * sim.Microsecond)
	core.Stop()
	accesses := b.c.Reads + b.c.Writes
	if b.c.Reads == 0 || core.Steps() == 0 {
		t.Fatalf("no off-chip traffic: %v, %d steps", b.c, core.Steps())
	}
	if limit := 2*accesses + core.Steps() + 1; eng.Steps() > limit {
		t.Fatalf("%d events for %d accesses and %d line-steps, want ≤ %d (hop + completion per access, one wake per step)",
			eng.Steps(), accesses, core.Steps(), limit)
	}
}

func TestKernelCoreDependentLatencyBound(t *testing.T) {
	memLat := 100 * sim.Nanosecond
	eng, _, h := rig(memLat, cache.Config{MSHRs: 8, WriteBufs: 8})
	core := NewKernelCore(eng, h.Port(), LMbench, CoreConfig{
		CycleTime:  sim.FromNanoseconds(0.5),
		ArrayBases: []uint64{1 << 30},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	eng.RunUntil(200 * sim.Microsecond)
	steps := core.Steps()
	core.Stop()
	// Dependent loads: one step per ~(latency + ALU cycle).
	expected := float64(200*sim.Microsecond) / float64(memLat+sim.FromNanoseconds(0.5))
	if math.Abs(float64(steps)-expected) > 0.1*expected {
		t.Fatalf("dependent kernel made %d steps, want ≈%.0f — serialization broken", steps, expected)
	}
}

func TestKernelCoreAppBandwidthAccounting(t *testing.T) {
	eng, b, h := rig(20*sim.Nanosecond, cache.Config{
		Policy: cache.WriteAllocate, MSHRs: 16, WriteBufs: 20,
	})
	core := NewKernelCore(eng, h.Port(), StreamCopy, CoreConfig{
		CycleTime:  sim.FromNanoseconds(0.5),
		ArrayBases: []uint64{1 << 30, 1 << 31},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	eng.RunUntil(10 * sim.Microsecond)
	core.ResetStats()
	c0 := b.c
	eng.RunUntil(60 * sim.Microsecond)
	appBW := core.AppBandwidthGBs()
	core.Stop()
	delta := b.c.Sub(c0)
	memBW := delta.BandwidthGBs(50 * sim.Microsecond)
	// Write-allocate amplification: Copy moves 2 lines/step at the app
	// level but 3 at the controller (load + RFO + writeback).
	ratio := memBW / appBW
	if ratio < 1.35 || ratio > 1.65 {
		t.Fatalf("controller/app bandwidth ratio = %.2f, want ≈1.5 (write-allocate amplification)", ratio)
	}
}

func TestKernelCoreValidation(t *testing.T) {
	depRMW := Kernel{Name: "dep-rmw", Loads: 1, Stores: 1, ElemsPerLine: 1, Dependent: true}
	for _, tc := range []struct {
		what  string
		k     Kernel
		bases []uint64
	}{
		{"kernel with missing arrays", StreamAdd, []uint64{0}}, // needs 3
		{"dependent kernel with a store", depRMW, []uint64{0, 1 << 30}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", tc.what)
				}
			}()
			NewKernelCore(sim.New(), nil, tc.k, CoreConfig{
				CycleTime:  sim.Nanosecond,
				ArrayBases: tc.bases,
				ArrayBytes: 1 << 20,
			})
		}()
	}
}

func TestKernelInstrAccounting(t *testing.T) {
	if got := StreamTriad.InstrPerStep(); got != 8*(2+1)+8*4 {
		t.Fatalf("Triad instructions/step = %d", got)
	}
	if got := StreamTriad.AppBytesPerStep(); got != 3*64 {
		t.Fatalf("Triad app bytes/step = %d", got)
	}
	if got := LMbench.InstrPerStep(); got != 2 {
		t.Fatalf("LMbench instructions/step = %d", got)
	}
}
