package cpu

import (
	"math"
	"testing"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/sim"
)

// hitRig builds a hierarchy whose accesses are all (or partially) served
// on chip, the regime where the kernel core now completes steps virtually
// instead of scheduling its stored callback at ackAt.
func hitRig(hitRate float64, hitLat, memLat sim.Time) (*sim.Engine, *cache.Hierarchy) {
	eng, _, h := rig(memLat, cache.Config{
		MSHRs:         8,
		WriteBufs:     8,
		LLCHitRate:    hitRate,
		LLCHitLatency: hitLat,
	})
	return eng, h
}

// TestKernelCoreOnChipVirtualCompletion pins the timing semantics of the
// virtual completion path: a fully on-chip dependent chase must still
// serialize on the hit latency — one step per max(hit latency, pacing
// quantum) — and stamp its accounting with the virtual completion time,
// even though no completion event ever fires.
func TestKernelCoreOnChipVirtualCompletion(t *testing.T) {
	hitLat := 30 * sim.Nanosecond
	cycle := sim.FromNanoseconds(0.5)
	eng, h := hitRig(1.0, hitLat, 400*sim.Nanosecond)
	core := NewKernelCore(eng, h.Port(0), LMbench, CoreConfig{
		CycleTime:  cycle,
		ArrayBases: []uint64{1 << 30},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	dur := 120 * sim.Microsecond
	eng.RunUntil(dur)
	core.Stop()

	// LMbench: 2 instructions/step at width 4 → a 1-cycle pacing quantum,
	// far below the hit latency, so the chase serializes on hitLat.
	steps := float64(core.Steps())
	expected := float64(dur) / float64(hitLat)
	if math.Abs(steps-expected) > 0.02*expected {
		t.Fatalf("on-chip chase made %.0f steps, want ≈%.0f (hit-latency serialization lost)", steps, expected)
	}
	// The IPC window must end on a virtual completion stamp, not an event
	// timestamp: 2 instructions per hitLat-period.
	wantIPC := 2.0 / (float64(hitLat) / float64(cycle))
	if got := core.IPC(); math.Abs(got-wantIPC) > 0.05*wantIPC {
		t.Fatalf("on-chip chase IPC = %.3f, want ≈%.3f", got, wantIPC)
	}
}

// TestKernelCoreOnChipPacingBound flips the regime: with a heavy ALU body
// the pacing deadline lies beyond the on-chip completion, so the step rate
// must be compute-bound — exactly the case where the virtual completion
// saves the intermediate event and the wake carries straight to the
// pacing deadline.
func TestKernelCoreOnChipPacingBound(t *testing.T) {
	hitLat := 10 * sim.Nanosecond
	cycle := sim.FromNanoseconds(0.5)
	heavy := Kernel{Name: "alu-chase", Loads: 1, ElemsPerLine: 1, ALUPerElem: 199, Dependent: true, Random: true}
	eng, h := hitRig(1.0, hitLat, 400*sim.Nanosecond)
	core := NewKernelCore(eng, h.Port(0), heavy, CoreConfig{
		CycleTime:  cycle,
		ArrayBases: []uint64{1 << 30},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	dur := 120 * sim.Microsecond
	eng.RunUntil(dur)
	core.Stop()

	// 200 instructions/step at width 4 → 50 cycles = 25 ns per step,
	// dominating the 10 ns hit latency.
	stepTime := 50 * cycle
	expected := float64(dur) / float64(stepTime)
	if got := float64(core.Steps()); math.Abs(got-expected) > 0.02*expected {
		t.Fatalf("compute-bound on-chip chase made %.0f steps, want ≈%.0f", got, expected)
	}
	if got, want := core.IPC(), 4.0; math.Abs(got-want) > 0.05*want {
		t.Fatalf("compute-bound IPC = %.2f, want ≈%.2f (width-bound)", got, want)
	}
}

// TestKernelCoreMixedHitsDeterministic runs a mixed on-/off-chip workload
// (stores included, so the non-dependent on-chip paths exercise too)
// twice and requires bit-identical results — the virtual completion path
// must not introduce schedule-order nondeterminism.
func TestKernelCoreMixedHitsDeterministic(t *testing.T) {
	run := func() (uint64, float64, float64) {
		eng, h := hitRig(0.5, 25*sim.Nanosecond, 120*sim.Nanosecond)
		gups := Kernel{Name: "gups", Loads: 1, Stores: 1, ElemsPerLine: 1, ALUPerElem: 2, Random: true}
		core := NewKernelCore(eng, h.Port(0), gups, CoreConfig{
			CycleTime:  sim.FromNanoseconds(0.5),
			ArrayBases: []uint64{1 << 30, 1 << 31},
			ArrayBytes: 1 << 22,
		})
		core.Start()
		eng.RunUntil(30 * sim.Microsecond)
		core.ResetStats()
		eng.RunUntil(150 * sim.Microsecond)
		core.Stop()
		return core.Steps(), core.IPC(), core.AppBandwidthGBs()
	}
	s1, ipc1, bw1 := run()
	s2, ipc2, bw2 := run()
	if s1 != s2 || ipc1 != ipc2 || bw1 != bw2 {
		t.Fatalf("identical runs diverged: (%d %.6f %.6f) vs (%d %.6f %.6f)", s1, ipc1, bw1, s2, ipc2, bw2)
	}
	if s1 == 0 {
		t.Fatal("mixed-hit workload made no progress")
	}
}

// TestKernelCoreAllOnChipStoresProgress pins the liveness argument for
// dropping the non-dependent on-chip resume event: a kernel whose traffic
// is entirely on-chip still makes progress, because every stall release
// flows through the port's OnFree hook.
func TestKernelCoreAllOnChipStoresProgress(t *testing.T) {
	eng, h := hitRig(1.0, 15*sim.Nanosecond, 300*sim.Nanosecond)
	core := NewKernelCore(eng, h.Port(0), StreamTriad, CoreConfig{
		CycleTime:  sim.FromNanoseconds(0.5),
		ArrayBases: []uint64{1 << 30, 1 << 31, 1 << 32},
		ArrayBytes: 1 << 24,
	})
	core.Start()
	eng.RunUntil(50 * sim.Microsecond)
	core.Stop()
	if core.Steps() == 0 {
		t.Fatal("fully on-chip STREAM kernel deadlocked")
	}
	// Fully on-chip, the kernel is width-bound: 56 instr/step at width 4
	// → 14 cycles = 7 ns per step.
	expected := float64(50*sim.Microsecond) / float64(14*sim.FromNanoseconds(0.5))
	if got := float64(core.Steps()); math.Abs(got-expected) > 0.05*expected {
		t.Fatalf("on-chip STREAM made %.0f steps, want ≈%.0f (width-bound)", got, expected)
	}
}
