package cpu

import (
	"testing"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/sim"
)

// wakeLog wraps a component's pacing wake: it records the instant of every
// fire, and how many fires come after the component was stopped.
type wakeLog struct {
	fires     []sim.Time
	afterStop int
	stopped   bool
}

func (w *wakeLog) wrap(wake func(sim.Time)) func(sim.Time) {
	return func(now sim.Time) {
		w.fires = append(w.fires, now)
		if w.stopped {
			w.afterStop++
		}
		wake(now)
	}
}

// check holds the log to one pending wake at a time: no two wakes fire at
// the same instant, and a stopped component, drained, fires at most the
// one wake it had queued.
func (w *wakeLog) check(t *testing.T) {
	t.Helper()
	if len(w.fires) < 10 {
		t.Fatalf("only %d pacing wakes fired: the run never stalled on pacing", len(w.fires))
	}
	for i := 1; i < len(w.fires); i++ {
		if w.fires[i] <= w.fires[i-1] {
			t.Fatalf("wakes %d and %d fired at %v and %v: two were pending", i-1, i, w.fires[i-1], w.fires[i])
		}
	}
	if w.afterStop > 1 {
		t.Fatalf("%d wakes fired after Stop, want at most the one pending", w.afterStop)
	}
}

// A paced generator under MSHR back-pressure stalls on both limits in
// turn: each completion's OnFree re-enters tryIssue, often while a pacing
// wake is queued. The re-entry must not queue a second wake.
func TestGeneratorHoldsOneWake(t *testing.T) {
	eng, _, h := rig(200*sim.Nanosecond, cache.Config{MSHRs: 4, WriteBufs: 4})
	port := h.Port(0)
	g := NewGenerator(eng, port, GenConfig{
		PacePerOp:  20 * sim.Nanosecond, // 4 MSHRs over 200 ns allow one op per 50 ns
		LoadBase:   1 << 30,
		StoreBase:  1 << 31,
		ArrayBytes: 1 << 24,
	})
	var log wakeLog
	g.wakeFn = log.wrap(g.wakeFn)
	g.Start()
	onFree, reentries := port.OnFree, 0
	port.OnFree = func() {
		if g.asleep {
			reentries++
		}
		onFree()
	}
	eng.RunUntil(20 * sim.Microsecond)
	g.Stop()
	log.stopped = true
	eng.Run()
	if reentries == 0 {
		t.Fatal("no OnFree re-entry while a wake was queued: the case is not exercised")
	}
	log.check(t)
}

// A paced kernel core stopped and started again while its wake is queued
// begins a step at once; the step's close finds the old wake still queued
// and must not queue another beside it. The close comes through
// completeStep for a streaming kernel and through virtualStepComplete for
// a dependent chase that hits on chip.
func TestKernelCoreHoldsOneWake(t *testing.T) {
	stream, _, streamHier := rig(20*sim.Nanosecond, cache.Config{MSHRs: 16, WriteBufs: 16})
	chase, chaseHier := hitRig(1.0, 10*sim.Nanosecond, 400*sim.Nanosecond)
	for _, tc := range []struct {
		eng  *sim.Engine
		h    *cache.Hierarchy
		k    Kernel
		arrs []uint64
	}{
		{stream, streamHier, StreamTriad, []uint64{1 << 30, 1 << 31, 1 << 32}},
		{chase, chaseHier, Kernel{Name: "alu-chase", Loads: 1, ElemsPerLine: 1, ALUPerElem: 199, Dependent: true, Random: true}, []uint64{1 << 30}},
	} {
		t.Run(tc.k.Name, func(t *testing.T) {
			c := NewKernelCore(tc.eng, tc.h.Port(0), tc.k, CoreConfig{
				CycleTime:  sim.FromNanoseconds(0.5),
				ArrayBases: tc.arrs,
				ArrayBytes: 1 << 24,
			})
			var log wakeLog
			c.wakeFn = log.wrap(c.wakeFn)
			c.Start()
			tc.eng.RunUntil(5*sim.Microsecond + 1)
			if !c.asleep {
				t.Fatal("no pacing wake queued at the restart: the case is not exercised")
			}
			c.Stop()
			c.Start()
			tc.eng.RunUntil(10 * sim.Microsecond)
			c.Stop()
			log.stopped = true
			tc.eng.Run()
			log.check(t)
		})
	}
}
