package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// heapEngine is the kernel as it was before the wheel: one container/heap
// queue in the (deadline, key, tag, schedule order) total order, one
// allocated record per event. It is the reference the differential test
// holds Engine to and the baseline BenchmarkKernelScheduleFireHeapBaseline
// prices the wheel against.
type heapEngine struct {
	now   Time
	seq   uint64
	steps uint64
	queue heapEvents
}

type heapEvent struct {
	at, key Time
	tag     int32
	seq     uint64
	fn      func(Time)
}

type heapEvents []*heapEvent

func (h heapEvents) Len() int { return len(h) }
func (h heapEvents) Less(i, j int) bool {
	a, b := h[i], h[j]
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
func (h heapEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heapEvents) Push(x any)   { *h = append(*h, x.(*heapEvent)) }
func (h *heapEvents) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (e *heapEngine) schedule(at, key Time, tag int32, fn func(Time)) {
	if at < e.now {
		at = e.now
	}
	heap.Push(&e.queue, &heapEvent{at: at, key: key, tag: tag, seq: e.seq, fn: fn})
	e.seq++
}

func (e *heapEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*heapEvent)
	e.now = ev.at
	e.steps++
	ev.fn(ev.at)
	return true
}

func (e *heapEngine) runUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *heapEngine) reset() { *e = heapEngine{queue: e.queue[:0]} }

// kernel is what a differential program drives: the whole scheduling
// surface of Engine, spelled so the heap reference can offer it too.
type kernel interface {
	clock() Time
	plain(at Time, fn func(Time))
	keyed(at, key Time, tag int32, fn func(Time))
	until(t Time)
	drain()
	clear()
	state() string
}

type wheelKernel struct{ e *Engine }

func (k wheelKernel) clock() Time                  { return k.e.Now() }
func (k wheelKernel) plain(at Time, fn func(Time)) { k.e.Schedule(at, fn) }
func (k wheelKernel) keyed(at, key Time, tag int32, fn func(Time)) {
	k.e.ScheduleKeyed(at, key, tag, fn)
}
func (k wheelKernel) until(t Time) { k.e.RunUntil(t) }
func (k wheelKernel) drain()       { k.e.Run() }
func (k wheelKernel) clear()       { k.e.Reset() }
func (k wheelKernel) state() string {
	return fmt.Sprintf("now=%d steps=%d pending=%d", k.e.Now(), k.e.Steps(), k.e.Pending())
}

// heapKernel states Schedule in terms of ScheduleKeyed, the way its doc
// comment defines it: key Now(), tag 0.
type heapKernel struct{ e heapEngine }

func (k *heapKernel) clock() Time                  { return k.e.now }
func (k *heapKernel) plain(at Time, fn func(Time)) { k.e.schedule(at, k.e.now, 0, fn) }
func (k *heapKernel) keyed(at, key Time, tag int32, fn func(Time)) {
	k.e.schedule(at, key, tag, fn)
}
func (k *heapKernel) until(t Time) { k.e.runUntil(t) }
func (k *heapKernel) drain() {
	for k.e.step() {
	}
}
func (k *heapKernel) clear() { k.e.reset() }
func (k *heapKernel) state() string {
	return fmt.Sprintf("now=%d steps=%d pending=%d", k.e.now, k.e.steps, len(k.e.queue))
}

// wheelSpan is the wheel horizon: deadlines nearer than this sit in
// buckets, later ones in the overflow heap.
const wheelSpan = Time(wheelSize << granBits)

// runProgram drives k with the seeded random program and returns its log:
// one line per fired event (id, deadline passed or clock read) and per
// observation (counters after each run). Every choice comes from the
// program's own generator, callbacks included, so two kernels that fire in
// the same order draw the same program.
func runProgram(k kernel, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	nextID := 0

	// delta spreads deadlines over everything the kernel routes apart: the
	// active run (zero and past), one bucket, the wheel, its horizon's
	// edge, and the overflow heap out to milliseconds.
	delta := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -Time(rng.Intn(5000))
		case 2:
			return Time(rng.Intn(1 << granBits))
		case 3, 4:
			return Time(rng.Int63n(int64(wheelSpan)))
		case 5:
			return wheelSpan - 512 + Time(rng.Intn(1024))
		case 6:
			return Time(rng.Int63n(40 * int64(wheelSpan)))
		default:
			return Time(rng.Int63n(int64(3 * Millisecond)))
		}
	}
	// wakes are steady-rate components: each holds one prebuilt callback
	// and at most one pending wake, flagged while queued and cleared first
	// thing in the callback, so a wake may schedule itself again inside its
	// own fire.
	var wakes [3]struct {
		fn      func(Time)
		pending bool
	}
	wakeSome := func() {
		w := &wakes[rng.Intn(len(wakes))]
		if w.pending {
			return
		}
		w.pending = true
		at := k.clock() + delta()
		if rng.Intn(2) == 0 {
			k.plain(at, w.fn)
		} else {
			k.keyed(at, k.clock(), int32(rng.Intn(4)), w.fn)
		}
	}
	var spawn func(depth int)
	fired := func(id, depth int) {
		log = append(log, fmt.Sprintf("fire %d @%d", id, k.clock()))
		if depth >= 3 {
			return
		}
		switch rng.Intn(5) {
		case 0, 1:
			spawn(depth + 1)
		case 2:
			spawn(depth + 1)
			spawn(depth + 1)
		case 3:
			wakeSome()
		}
	}
	// spawn schedules one event through a random entry point.
	spawn = func(depth int) {
		id := nextID
		nextID++
		at := k.clock() + delta()
		switch rng.Intn(4) {
		case 0, 1:
			k.plain(at, func(Time) { fired(id, depth) })
		default:
			// Keys before, at and after the clock (the order is defined
			// for any key), -1 as trace replay uses.
			key := k.clock() - 1 - Time(rng.Intn(3000)) + Time(rng.Intn(2))*Time(rng.Intn(4000))
			if rng.Intn(3) == 0 {
				key = k.clock()
			}
			tag := int32(rng.Intn(4))
			k.keyed(at, key, tag, func(got Time) {
				log = append(log, fmt.Sprintf("deadline %d", got))
				fired(id, depth)
			})
		}
	}
	for i := range wakes {
		id, w := -1-i, &wakes[i]
		w.fn = func(Time) {
			w.pending = false
			fired(id, 1)
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 50:
			spawn(0)
		case r < 58:
			wakeSome()
		case r < 98:
			d := delta()
			if d < 0 {
				d = -d
			}
			k.until(k.clock() + d)
			log = append(log, "until "+k.state())
		case r < 99:
			k.drain()
			log = append(log, "drain "+k.state())
		default:
			k.clear()
			for i := range wakes {
				wakes[i].pending = false
			}
			log = append(log, "reset "+k.state())
		}
	}
	k.drain()
	return append(log, "end "+k.state())
}

// TestDifferentialAgainstHeap runs seeded random programs — plain and keyed
// schedules with past keys and tags, components scheduling their one
// prebuilt wake (inside its own fire too), RunUntil across the wheel
// horizon, Reset — on Engine and on the heap reference. The logs must match line for line: same events, in the
// same order, at the same instants, with the same counters.
func TestDifferentialAgainstHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want := runProgram(&heapKernel{}, seed, 1500)
		got := runProgram(wheelKernel{New()}, seed, 1500)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<log ended>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: line %d of %d: engine %q, heap reference %q", seed, i, len(want), g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d lines, heap reference %d", seed, len(got), len(want))
		}
	}
}

// BenchmarkKernelScheduleFireHeapBaseline is the perfload.ScheduleFire
// workload (8 self-perpetuating chains, short DDR-like deltas) on the heap
// reference; the root package's BenchmarkKernelScheduleFire is the same
// workload on Engine.
func BenchmarkKernelScheduleFireHeapBaseline(b *testing.B) {
	eng := &heapEngine{}
	fired := 0
	var tick func(Time)
	tick = func(Time) {
		fired++
		if fired < b.N {
			eng.schedule(eng.now+3*Nanosecond+Time(fired%7)*100, eng.now, 0, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 8 && i < b.N; i++ {
		eng.schedule(Time(i)*Nanosecond, 0, 0, tick)
	}
	for eng.step() {
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
