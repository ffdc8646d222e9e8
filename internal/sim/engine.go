// Package sim provides the discrete-event simulation kernel used by every
// timed model in the repository.
//
// Time is an integer count of picoseconds. An integer base avoids the drift
// a float64 clock accumulates over billions of events and makes simulations
// bit-reproducible across machines. One picosecond resolves every JEDEC
// timing in the DDR4/DDR5/HBM generations (the finest is a fraction of a
// 0.357 ns DDR5-5600 clock) without rounding.
//
// # Fast path
//
// The kernel is built for the workload the Mess sweep produces: millions of
// short-horizon events (DDR command timing, pacing, completion callbacks)
// per curve point. Three mechanisms keep the per-event cost down:
//
//   - a free-list event pool: event records are recycled as soon as they
//     fire or are swept, so steady-state simulation schedules without
//     allocating. Handles carry a generation counter, making Cancel on an
//     already-fired (and possibly recycled) event a safe no-op;
//   - a calendar timer wheel in front of the heap: events within the wheel
//     horizon (1024 buckets × 256 ps ≈ 262 ns — which covers DDR timing,
//     issue pacing and completion latencies) are placed in O(1) buckets
//     found again via an occupancy bitmap; only far-future events (refresh
//     epochs, coarse pacing ladders) pay for the binary heap. A bucket is a
//     FIFO threaded through the events' own link field (the free-list
//     link, unused while an event is pending), so the wheel owns no
//     per-bucket storage: a drain walks the list into the active run, and
//     neither a fresh nor a long-running engine allocates bucket arrays;
//   - cancellation by tombstone: Cancel marks the event dead in O(1) and
//     the sweep recycles it when its position drains, instead of restoring
//     heap shape on every cancel.
//
// Steady-rate components should hold a Timer (re-armable one-shot with a
// fixed callback) instead of scheduling fresh closures, which removes the
// remaining per-event closure allocations from their paths. A fixed-period
// component (the profile sampler, the CXL injector) re-arms its Timer at
// the end of its own callback.
//
// Three entry points schedule: Schedule (a closure at an absolute time),
// ScheduleKeyed (a timed callback with explicit tie-break keys) and Timer.
// A delay is Schedule(Now()+d, fn).
//
// # Determinism
//
// Events fire in strictly increasing (deadline, schedule order): equal-time
// events run exactly in the order they were scheduled, regardless of which
// internal structure (active list, wheel bucket, overflow heap) held them.
// Two runs that schedule the same events in the same order execute
// identically — Steps(), Now() and every callback interleaving match. The
// wheel is an internal routing layer only; it never reorders events with
// respect to the (at, seq) total order the original heap implemented.
//
// # Event order
//
// The full order is (deadline, key, tag, seq). ScheduleKeyed is the one
// entry point that sets key and tag; Schedule and Timer use key = Now()
// and tag 0, which is why plain events keep the (deadline, schedule order)
// above. A Timer that re-arms at the end of its callback schedules its next
// expiry after everything the callback scheduled.
//
//   - key is the schedule instant. Completions pass Now(). Trace replay
//     passes −1, so a record due at t runs before every backend event due
//     at t, as it did when the whole trace was scheduled up front.
//   - tag names the scheduling entity: 0 for cores, caches and issuers,
//     i+1 for DRAM channel i (its decides and completions), cxl.DevTagBase
//     for the device models. Equal (deadline, key) ties across entities
//     resolve by tag, not by which entity happened to schedule first.
//   - seq, the schedule order, breaks the ties left within one entity.
//
// Results depend on this order. Where two events tie, the one that runs
// first decides what a controller sees next, so every checked-in curve,
// golden and charz key was produced under it: changing who sets which key
// or tag is a change of results (the results golden moves).
package sim

import "math/bits"

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units, expressed in the picosecond base.
const (
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanoseconds converts a float64 nanosecond count to a Time, rounding to
// the nearest picosecond.
func FromNanoseconds(ns float64) Time { return Time(ns*float64(Nanosecond) + 0.5) }

// Timer-wheel geometry. Buckets span 2^granBits picoseconds; the wheel
// covers wheelSize buckets. Events within the horizon are bucketed in O(1);
// events beyond it go to the overflow heap and cascade into the wheel as
// the cursor approaches them.
const (
	granBits  = 8                     // 256 ps per bucket
	wheelBits = 10                    // 1024 buckets
	wheelSize = int64(1) << wheelBits // slots covered by the wheel window
	wheelMask = wheelSize - 1         //
	occWords  = int(wheelSize / 64)   // occupancy bitmap words
)

// event is one scheduled callback record. Records are pooled: after firing
// (or after a cancelled record is swept) the record returns to the engine's
// free list with its generation bumped, which invalidates every Handle that
// still points at it.
type event struct {
	at    Time
	key   Time   // schedule instant (ScheduleKeyed may state another): first tie-break
	seq   uint64 // final tie-break so equal-(at, key, tag) events run in schedule order
	gen   uint64 // bumped on recycle; Handles must match to act
	tag   int32  // scheduling entity (0 = default); orders (at, key) ties across entities
	dead  bool   // cancelled tombstone, swept lazily
	inCur bool   // resident in the active run (drives tombstone compaction)
	fn    func()
	tfn   func(Time) // timed variant: called with the deadline
	next  *event     // free-list link; wheel-bucket FIFO link while pending in a bucket
}

// bucket is one wheel slot: a FIFO of pending events threaded through
// event.next, in schedule (and cascade) order.
type bucket struct{ head, tail *event }

// Handle identifies one scheduled event. The zero Handle is valid and inert.
// Handles are values: copying one copies the right to cancel.
type Handle struct {
	eng *Engine
	ev  *event
	gen uint64
}

// live reports whether the handle still names a pending event.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen && !h.ev.dead }

// Cancel removes the pending event in O(1). Cancelling an event that has
// already fired, was already cancelled, or was never scheduled (the zero
// Handle) is a no-op: the generation counter detects a recycled record, so
// a stale handle can never cancel an unrelated future event.
func (h Handle) Cancel() {
	if !h.live() {
		return
	}
	h.ev.dead = true
	h.ev.fn, h.ev.tfn = nil, nil
	h.eng.live--
	if h.ev.inCur {
		h.eng.curDead++
	}
}

// Engine is a single-threaded discrete-event scheduler. It is intentionally
// not safe for concurrent use: every simulation instance owns one engine and
// runs on one goroutine; experiments parallelize across engines.
type Engine struct {
	now    Time
	seq    uint64
	nsteps uint64
	live   int // pending, non-cancelled events

	// cur is the active sorted run: every queued event whose slot is
	// ≤ wslot, ordered by (at, seq) and served from curPos. New events
	// landing at or before the cursor are merge-inserted here. curDead
	// counts tombstones resident in the unserved tail: when they dominate
	// it, insertCur compacts instead of memmoving over dead records —
	// without this, schedule+cancel churn at the cursor degenerates to
	// O(n) per insert.
	cur     []*event
	curPos  int
	curDead int

	wslot   int64 // wheel cursor: absolute slot (at >> granBits)
	wheelN  int   // events resident in buckets
	buckets [wheelSize]bucket
	occ     [occWords]uint64

	overflow []*event // min-heap by (at, seq): events beyond the horizon

	pool *event // free list of recycled records
}

// New returns an Engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending reports the number of live queued events. Cancelled events never
// count here, even while their tombstones await sweeping.
func (e *Engine) Pending() int { return e.live }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) fires the event at Now; the kernel never runs time backwards.
func (e *Engine) Schedule(at Time, fn func()) Handle { return e.add(at, e.now, 0, fn, nil) }

// ScheduleKeyed queues fn to run at absolute time at, invoked with that
// deadline, and states the event's place among equal-deadline events
// outright: they fire in (key, tag, schedule order), where Schedule and
// Timer use key = Now() and tag = 0. It is the one form for everything
// that is not a plain local closure:
//
//   - completion callbacks pass key = Now(): storing the func(Time) instead
//     of wrapping it as func() { done(at) } keeps the hot completion path
//     allocation-free;
//   - entities whose relative order is part of the result (DRAM channels,
//     device models) pass their unique tag, which makes cross-entity tie
//     order a pure function of (at, key, tag) instead of an artifact of
//     schedule interleaving;
//   - trace replay passes key = -1, ahead of every locally scheduled event.
func (e *Engine) ScheduleKeyed(at, key Time, tag int32, fn func(Time)) Handle {
	return e.add(at, key, tag, nil, fn)
}

func (e *Engine) add(at, key Time, tag int32, fn func(), tfn func(Time)) Handle {
	if at < e.now {
		at = e.now
	}
	// Keep the wheel cursor abreast of the clock while no events reside in
	// buckets. RunUntil (and far-future cascades) can advance the clock many
	// horizons past wslot; without this catch-up, every short-delta schedule
	// after such a jump computes slot-wslot ≥ wheelSize and detours through
	// the overflow heap — the pathology that made cancel-heavy churn pay
	// O(log n) heap traffic for deadlines only nanoseconds away. The jump is
	// safe exactly when the buckets are empty: cur entries are served
	// regardless of the cursor, and every pending overflow event has a
	// deadline ≥ now, so its slot stays ahead of (or lands on) the new
	// cursor and cascades normally.
	if e.wheelN == 0 {
		if nowSlot := int64(e.now) >> granBits; nowSlot > e.wslot {
			e.wslot = nowSlot
		}
	}
	ev := e.alloc()
	ev.at, ev.key, ev.tag, ev.seq, ev.fn, ev.tfn = at, key, tag, e.seq, fn, tfn
	e.seq++
	e.live++
	switch slot := int64(at) >> granBits; {
	case slot <= e.wslot:
		e.insertCur(ev)
	case slot-e.wslot < wheelSize:
		e.bucketAdd(slot, ev)
	default:
		e.heapPush(ev)
	}
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// less is the kernel's total event order: deadline, then schedule instant,
// then entity tag, then schedule order. For events keyed with Now() key is
// the nondecreasing engine clock, so among untagged events the order
// coincides with the historical (at, seq) order. The key separates ties
// for events keyed before the clock (trace replay's −1); the tag separates
// full (at, key) ties across entities (see "Event order" in the package
// doc).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.seq < b.seq
}

// insertCur merge-inserts ev into the unserved tail of the active run. The
// new event carries the highest seq, so it lands after every queued event
// with an equal or earlier deadline — exactly the (at, seq) order.
//
// A run whose every entry has been served is emptied first. peek only
// empties it when it finds nothing left to serve, which never happens to a
// callback that schedules its successor at Now() (a DRAM decide): without
// the reset that chain appends to the run forever, and the served prefix is
// never reclaimed.
func (e *Engine) insertCur(ev *event) {
	if e.curPos == len(e.cur) {
		e.cur, e.curPos = e.cur[:0], 0
	} else if e.curDead >= 64 && 2*e.curDead >= len(e.cur)-e.curPos {
		e.compactCur()
	}
	ev.inCur = true
	lo, hi := e.curPos, len(e.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e.cur[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.cur = append(e.cur, nil)
	copy(e.cur[lo+1:], e.cur[lo:])
	e.cur[lo] = ev
}

// compactCur sweeps tombstones out of the unserved tail of the active run,
// preserving the order of the survivors. Triggered when dead records are
// about to dominate insert cost; amortized O(1) per cancel.
func (e *Engine) compactCur() {
	out := e.curPos
	for i := e.curPos; i < len(e.cur); i++ {
		ev := e.cur[i]
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.cur[out] = ev
		out++
	}
	for i := out; i < len(e.cur); i++ {
		e.cur[i] = nil
	}
	e.cur = e.cur[:out]
	e.curDead = 0
}

func (e *Engine) bucketAdd(slot int64, ev *event) {
	ev.inCur = false
	ev.next = nil
	idx := slot & wheelMask
	b := &e.buckets[idx]
	if b.tail == nil {
		b.head = ev
		e.occ[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
	e.wheelN++
}

// peek returns the next live event without consuming it, advancing the
// wheel cursor and cascading overflow as needed. It returns nil when the
// queue is empty (sweeping any remaining tombstones on the way).
func (e *Engine) peek() *event {
	for {
		for e.curPos < len(e.cur) {
			ev := e.cur[e.curPos]
			if ev.dead {
				e.curPos++
				e.curDead--
				e.recycle(ev)
				continue
			}
			return ev
		}
		if len(e.cur) > 0 || e.curPos > 0 {
			e.cur, e.curPos = e.cur[:0], 0
		}
		if e.wheelN == 0 && len(e.overflow) == 0 {
			return nil
		}
		// Cascade: pull overflow events inside the horizon into the wheel;
		// with an empty wheel, jump the cursor straight to the overflow
		// minimum. Heap pops come out in (at, seq) order, so events landing
		// directly in cur arrive sorted.
		for len(e.overflow) > 0 {
			os := int64(e.overflow[0].at) >> granBits
			if os-e.wslot >= wheelSize {
				if e.wheelN > 0 {
					break
				}
				e.wslot = os
			}
			ev := e.heapPop()
			if slot := int64(ev.at) >> granBits; slot <= e.wslot {
				ev.inCur = true
				if ev.dead {
					e.curDead++
				}
				e.cur = append(e.cur, ev)
			} else {
				e.bucketAdd(slot, ev)
			}
		}
		if len(e.cur) > 0 {
			continue
		}
		// Advance to the next occupied bucket and walk its list into the
		// (empty) active run. Tombstones are swept here, before sorting: a
		// cancel-heavy burst can fill a bucket with dead records, and
		// ordering them first would waste the whole sort on events that
		// fire nothing.
		e.wslot += e.nextOccupied()
		idx := e.wslot & wheelMask
		ev := e.buckets[idx].head
		e.buckets[idx] = bucket{}
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
		for ev != nil {
			next := ev.next
			e.wheelN--
			if ev.dead {
				e.recycle(ev)
			} else {
				ev.next = nil
				ev.inCur = true
				e.cur = append(e.cur, ev)
			}
			ev = next
		}
		sortEvents(e.cur)
	}
}

// nextOccupied scans the occupancy bitmap circularly from the cursor and
// reports the distance (in slots, ≥ 1) to the nearest occupied bucket. It
// must only be called with wheelN > 0.
func (e *Engine) nextOccupied() int64 {
	cursor := (e.wslot + 1) & wheelMask
	w := int(cursor >> 6)
	word := e.occ[w] &^ (1<<(uint(cursor)&63) - 1)
	for {
		if word != 0 {
			idx := int64(w<<6 + bits.TrailingZeros64(word))
			return (idx - e.wslot) & wheelMask
		}
		w++
		if w == occWords {
			w = 0
		}
		word = e.occ[w]
	}
}

// sortEvents orders a drained bucket by (at, seq). Buckets span 256 ps and
// are appended in schedule order, so live runs are short and nearly
// sorted; insertion sort beats the generic sort here (a pdqsort fallback
// for long runs measured ~50% slower on the dense-wheel workload, because
// even crowded buckets arrive almost in order once tombstones are swept
// before sorting).
func sortEvents(evs []*event) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && less(ev, evs[j]) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}

func (e *Engine) alloc() *event {
	ev := e.pool
	if ev == nil {
		return &event{}
	}
	e.pool = ev.next
	ev.next = nil
	return ev
}

// recycle returns a served or swept record to the pool, bumping its
// generation so outstanding Handles go inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.tfn = nil, nil
	ev.dead = false
	ev.inCur = false
	ev.next = e.pool
	e.pool = ev
}

// Step runs the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire consumes ev, the event peek just returned, and runs its callback.
func (e *Engine) fire(ev *event) {
	e.curPos++
	e.now = ev.at
	e.nsteps++
	e.live--
	fn, tfn, at := ev.fn, ev.tfn, ev.at
	// Recycle before invoking: the callback's own scheduling reuses the
	// record immediately, and the generation bump inertly expires any
	// handle still pointing at it.
	e.recycle(ev)
	if tfn != nil {
		tfn(at)
	} else {
		fn()
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with deadlines ≤ t, including those its
// callbacks schedule by t, then advances the clock to t. Events due after t
// stay queued for the next run.
func (e *Engine) RunUntil(t Time) {
	for ev := e.peek(); ev != nil && ev.at <= t; ev = e.peek() {
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, counters cleared — while keeping its allocated capacity warm: the
// event pool, the active run and the overflow array are retained, so a reused
// engine simulates its next run without re-allocating kernel structures.
// Every outstanding Handle and Timer of the previous run goes inert. This
// is how the benchmark harness reuses one engine per worker across sweep
// points instead of rebuilding the kernel for each.
func (e *Engine) Reset() {
	for _, ev := range e.cur[e.curPos:] {
		e.recycle(ev)
	}
	e.cur, e.curPos = e.cur[:0], 0
	for w, word := range e.occ {
		for ; word != 0; word &= word - 1 {
			idx := w<<6 + bits.TrailingZeros64(word)
			for ev := e.buckets[idx].head; ev != nil; {
				next := ev.next
				e.recycle(ev)
				ev = next
			}
			e.buckets[idx] = bucket{}
		}
		e.occ[w] = 0
	}
	e.wheelN = 0
	for _, ev := range e.overflow {
		e.recycle(ev)
	}
	e.overflow = e.overflow[:0]
	e.now, e.seq, e.nsteps, e.live, e.wslot, e.curDead = 0, 0, 0, 0, 0, 0
}

// Overflow heap: a plain slice min-heap by (at, seq), hand-rolled to avoid
// the container/heap interface dispatch on the far-event path.

func (e *Engine) heapPush(ev *event) {
	ev.inCur = false
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) heapPop() *event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && less(h[l], h[min]) {
			min = l
		}
		if r < n && less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.overflow = h
	return top
}

// Timer is a re-armable one-shot timer with a fixed callback, the
// replacement for components that repeatedly schedule the same wake-up
// closure (issue pacing, controller decide events). The callback func is
// captured once at construction, so arming allocates nothing beyond the
// pooled event record. Arming an armed timer reschedules it; a timer whose
// event has fired reads as disarmed.
type Timer struct {
	eng *Engine
	fn  func()
	h   Handle
}

// NewTimer builds a timer that runs fn when it expires.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// Arm schedules the timer to fire at absolute time at, replacing any
// pending expiry.
func (t *Timer) Arm(at Time) {
	t.h.Cancel()
	t.h = t.eng.Schedule(at, t.fn)
}

// Stop cancels a pending expiry; stopping a disarmed timer is a no-op.
func (t *Timer) Stop() {
	t.h.Cancel()
	t.h = Handle{}
}

// Armed reports whether an expiry is pending. Inside the timer's own
// callback the timer already reads as disarmed, so callbacks can re-arm.
func (t *Timer) Armed() bool { return t.h.live() }

// When reports the pending expiry time; ok is false when disarmed.
func (t *Timer) When() (at Time, ok bool) {
	if !t.h.live() {
		return 0, false
	}
	return t.h.ev.at, true
}
