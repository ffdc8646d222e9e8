package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func(Time) { order = append(order, 3) })
	e.Schedule(10, func(Time) { order = append(order, 1) })
	e.Schedule(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of schedule order at %d: %v", i, order[:i+1])
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := New()
	var at Time = -1
	e.Schedule(100, func(Time) {
		e.Schedule(50, func(Time) { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i*10, func(Time) { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events until t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestAfterCascade(t *testing.T) {
	e := New()
	var ticks []Time
	var tick func(Time)
	tick = func(Time) {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.Schedule(e.Now()+7, tick)
		}
	}
	e.Schedule(e.Now()+7, tick)
	e.Run()
	for i, at := range ticks {
		if want := Time(7 * (i + 1)); at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Nanosecond.Nanoseconds() != 1 {
		t.Fatal("Nanosecond != 1 ns")
	}
	if Second.Seconds() != 1 {
		t.Fatal("Second != 1 s")
	}
	if FromNanoseconds(3.5) != 3500 {
		t.Fatalf("FromNanoseconds(3.5) = %d", FromNanoseconds(3.5))
	}
}

func TestFromNanosecondsRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		nsVal := float64(raw) / 16.0 // up to ~2.7e8 ns with sub-ns fractions
		got := FromNanoseconds(nsVal).Nanoseconds()
		diff := got - nsVal
		if diff < 0 {
			diff = -diff
		}
		return diff <= 0.001 // within a picosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepsCounts(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func(Time) {})
	}
	e.Run()
	if e.Steps() != 17 {
		t.Fatalf("Steps = %d, want 17", e.Steps())
	}
}

// --- pooled event records ---

// One event shape serves every schedule: deadline, key, seq, tag, one
// callback and the pool/bucket link, 48 B on a 64-bit target. Every pending
// event holds one record, so a field added here is paid by every event.
func TestEventRecordIs48Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record size is pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event record is %d B, want 48", got)
	}
}

// --- wheel/overflow path invariants ---

// horizonT is a duration safely beyond the timer-wheel horizon, forcing the
// overflow-heap path.
const horizonT = Time(wheelSize<<granBits) * 4

// Events beyond the wheel horizon must still interleave with near events in
// exact (at, seq) order as the cursor reaches them.
func TestOverflowCascadeOrdering(t *testing.T) {
	e := New()
	var order []int
	// Far events first (lower seq), then near events, then a pump that
	// schedules an equal-time rival of a far event via the wheel path.
	e.Schedule(horizonT, func(Time) { order = append(order, 1) })   // overflow, seq 0
	e.Schedule(horizonT+7, func(Time) { order = append(order, 3) }) // overflow, seq 1
	e.Schedule(3, func(Time) { order = append(order, 0) })          // near
	e.Schedule(horizonT-5, func(Time) {
		// Scheduled once time is near the horizon event: lands via the
		// wheel/cur path at the same deadline as the first far event, but
		// with a higher seq — must fire after it.
		e.Schedule(horizonT, func(Time) { order = append(order, 2) })
	})
	e.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("overflow/wheel interleave out of order: %v", order)
		}
	}
}

// RunUntil boundaries on the wheel path: stopping between buckets, exactly
// on a deadline in a wheel bucket, and exactly on an overflow deadline.
func TestRunUntilBoundariesOnWheel(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(100, func(Time) { count++ })           // near bucket
	e.Schedule(100, func(Time) { count++ })           // same bucket, same time
	e.Schedule(50*Nanosecond, func(Time) { count++ }) // later bucket
	e.Schedule(horizonT, func(Time) { count++ })      // overflow

	e.RunUntil(99)
	if count != 0 || e.Now() != 99 {
		t.Fatalf("RunUntil(99): count=%d now=%d, want 0, 99", count, e.Now())
	}
	e.RunUntil(100) // exact deadline: both equal-time events run
	if count != 2 || e.Now() != 100 {
		t.Fatalf("RunUntil(100): count=%d now=%d, want 2, 100", count, e.Now())
	}
	e.RunUntil(50 * Nanosecond) // exact deadline in a far bucket
	if count != 3 || e.Now() != 50*Nanosecond {
		t.Fatalf("RunUntil(50ns): count=%d now=%d, want 3", count, e.Now())
	}
	e.RunUntil(horizonT - 1) // stop just short of the overflow event
	if count != 3 || e.Now() != horizonT-1 {
		t.Fatalf("RunUntil(horizon-1): count=%d now=%d, want 3", count, e.Now())
	}
	e.RunUntil(horizonT) // exact overflow deadline
	if count != 4 || e.Now() != horizonT {
		t.Fatalf("RunUntil(horizon): count=%d now=%d, want 4", count, e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// Scheduling behind an advanced wheel cursor (RunUntil moved the clock far
// forward with the next event even further out) must still fire in order.
func TestScheduleBehindCursor(t *testing.T) {
	e := New()
	var order []Time
	rec := func(Time) { order = append(order, e.Now()) }
	e.Schedule(horizonT, rec)
	// peek inside RunUntil advances the cursor toward horizonT.
	e.RunUntil(10 * Nanosecond)
	// Now schedule events earlier than the materialized far event.
	e.Schedule(20*Nanosecond, rec)
	e.Schedule(15*Nanosecond, rec)
	e.Run()
	want := []Time{15 * Nanosecond, 20 * Nanosecond, horizonT}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// --- determinism ---

// chaoticRun exercises every kernel structure: cascades, equal-time ties,
// and spans from sub-bucket to far beyond the horizon. It returns the exact
// fire sequence.
func chaoticRun(e *Engine) (order []uint64, steps uint64) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	var id uint64
	var spawn func(depth int) func(Time)
	spawn = func(depth int) func(Time) {
		myID := id
		id++
		return func(Time) {
			order = append(order, myID)
			if depth >= 6 {
				return
			}
			n := int(next(4))
			for i := 0; i < n; i++ {
				d := Time(next(uint64(horizonT)))
				e.Schedule(e.Now()+d, spawn(depth+1))
			}
		}
	}
	for i := 0; i < 40; i++ {
		e.Schedule(Time(next(1000)), spawn(0))
	}
	e.Run()
	return order, e.Steps()
}

func TestDeterministicReplay(t *testing.T) {
	o1, s1 := chaoticRun(New())
	o2, s2 := chaoticRun(New())
	if s1 != s2 {
		t.Fatalf("Steps differ across identical runs: %d vs %d", s1, s2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("event counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("event order diverges at step %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

// A Reset engine must behave exactly like a fresh one — same fire order,
// same step count — with the pool warm.
func TestResetMatchesFreshEngine(t *testing.T) {
	e := New()
	o1, s1 := chaoticRun(e)
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
	e.Reset()
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left state: now=%d steps=%d pending=%d", e.Now(), e.Steps(), e.Pending())
	}
	o2, s2 := chaoticRun(e)
	if s1 != s2 || len(o1) != len(o2) {
		t.Fatalf("reused engine diverged: steps %d vs %d, events %d vs %d", s1, s2, len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("reused engine order diverges at %d", i)
		}
	}
}

func TestResetDropsPendingEvents(t *testing.T) {
	e := New()
	e.Schedule(10, func(Time) { t.Fatal("event survived Reset") })
	e.Schedule(horizonT, func(Time) { t.Fatal("overflow event survived Reset") })
	e.Reset()
	fired := false
	e.Schedule(5, func(Time) { fired = true })
	e.Run()
	if !fired {
		t.Fatal("post-reset event did not fire")
	}
}

// --- ScheduleKeyed ---

func TestScheduleKeyedPassesDeadline(t *testing.T) {
	e := New()
	var got Time
	e.ScheduleKeyed(42, e.Now(), 0, func(at Time) { got = at })
	e.Run()
	if got != 42 {
		t.Fatalf("keyed callback got %d, want 42", got)
	}
	e.ScheduleKeyed(8, e.Now(), 0, func(at Time) { got = at }) // in the past: clamps
	e.Run()
	if got != 42 {
		t.Fatalf("keyed callback scheduled in the past got %d, want the clamped 42", got)
	}
}

// A callback that reschedules itself at Now() — a DRAM decide committing
// its next burst at once — lands in the active run every time. Each time
// the run has been served to its end, so the chain must reuse it instead of
// growing it by one entry per event.
func TestActiveRunRecycledWhenConsumed(t *testing.T) {
	e := New()
	const chain = 100000
	n := 0
	var again func(Time)
	again = func(Time) {
		if n++; n < chain {
			e.Schedule(e.Now(), again)
		}
	}
	e.Schedule(10, again)
	e.Run()
	if n != chain {
		t.Fatalf("chain fired %d times, want %d", n, chain)
	}
	if c := cap(e.cur); c > 64 {
		t.Fatalf("active run grew to capacity %d over a %d-event chain, want ≤ 64", c, chain)
	}
}

// RunUntil advancing the clock across an empty wheel must not strand the
// cursor behind the clock: short-delta schedules after the jump belong in
// wheel buckets, and the (at, seq) order must hold across the boundary.
func TestShortDeltaAfterClockJumpStaysOrdered(t *testing.T) {
	e := New()
	var order []Time
	rec := func(Time) { order = append(order, e.Now()) }
	e.Schedule(10, rec)
	e.Run()
	e.RunUntil(3 * Microsecond) // ≫ the wheel horizon, queue empty
	e.Schedule(e.Now()+300, rec)
	e.Schedule(e.Now()+100, rec)
	e.Schedule(e.Now()+200, rec)
	e.Run()
	want := []Time{10, e.Now() - 200, e.Now() - 100, e.Now()}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A fresh engine that fills every wheel bucket ahead of its cursor and runs
// dry allocates its event records and the active run's growth, nothing per
// bucket: buckets are lists threaded through the events themselves.
func TestFreshEngineAllocatesNoBucketStorage(t *testing.T) {
	nop := func(Time) {}
	const perBucket = 2
	events := perBucket * (wheelSize - 1)
	allocs := testing.AllocsPerRun(3, func() {
		e := New()
		for slot := int64(1); slot < wheelSize; slot++ {
			for k := 0; k < perBucket; k++ {
				e.Schedule(Time(slot<<granBits+int64(k)), nop)
			}
		}
		e.Run()
		if e.Steps() != uint64(events) {
			t.Fatalf("ran %d events, want %d", e.Steps(), events)
		}
	})
	// One for the engine, one per event record, a few for the active run.
	if limit := float64(events + 8); allocs > limit {
		t.Fatalf("fresh engine allocated %.0f times for %d events, want ≤ %.0f", allocs, events, limit)
	}
}

// TestScheduleKeyedOrder pins the keyed total order: equal-deadline
// events fire by (schedule instant, entity tag, schedule order), and
// plain schedules carry the current clock as their instant.
func TestScheduleKeyedOrder(t *testing.T) {
	eng := New()
	var order []int
	rec := func(id int) func(Time) {
		return func(Time) { order = append(order, id) }
	}
	// All inserted at now=0 for deadline 100, in an order chosen to
	// disagree with every tie-break level.
	eng.ScheduleKeyed(100, 5, 0, rec(5))         // latest instant: last
	eng.ScheduleKeyed(100, 3, 2, rec(4))         // instant 3, tag 2
	eng.ScheduleKeyed(100, 3, 1, rec(2))         // instant 3, tag 1, first scheduled
	eng.ScheduleKeyed(100, 3, 1, rec(3))         // same instant+tag: schedule order
	eng.ScheduleKeyed(100, eng.Now(), 0, rec(1)) // local: instant = now = 0, first
	eng.Run()
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("fire order %v, want [1 2 3 4 5]", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}
