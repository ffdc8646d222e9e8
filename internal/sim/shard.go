package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// InfLookahead marks a shard pair that never exchanges messages: the
// edge places no bound on either side's window. It is the default for
// every pair until SetLookahead declares otherwise, and Send panics on
// an undeclared edge — an undeclared-but-used edge would silently break
// the conservative window math.
const InfLookahead = Time(math.MaxInt64)

// maxRunTime is the window cap used by Run (drain mode). One below
// MaxInt64 so the +1 arithmetic around window ends cannot overflow.
const maxRunTime = Time(math.MaxInt64) - 1

// Barrier escalation budgets: a waiter spins spinBudget times, then
// calls runtime.Gosched another yieldBudget times, then parks on its
// wake channel until the other side unparks it. Spinning wins when the
// counterpart is actively running on another core; parking wins on
// oversubscribed or mostly-idle hosts where a spinner would only steal
// the cycles the counterpart needs to finish.
const (
	spinBudget  = 1 << 12
	yieldBudget = 1 << 6
)

// ShardGroup advances several Engines concurrently under a conservative
// time-window barrier (classic conservative PDES). Each shard owns one
// Engine and, between barriers, exactly one goroutine runs it: shard 0
// ("home") runs on the caller's goroutine, shards 1..n-1 each on a
// dedicated worker. All cross-shard communication goes through Send,
// which appends to a per-(from,to) outbox owned by the sending shard's
// goroutine; outboxes are drained into the target engines by the
// coordinator between windows, so no engine is ever touched by two
// goroutines at once.
//
// Windows are per shard, computed from an N×N lookahead matrix
// (SetLookahead(src, dst, l) = lower bound on arrival − send clock of
// every src→dst message; pairs that never talk stay at InfLookahead).
// Shard j's window end is the largest fixpoint of
//
//	end_j ≤ cap
//	end_j ≤ nd_i + look[i][j] − 1   for every busy shard i ≠ j
//	end_j ≤ end_i + look[i][j]      for every finite edge i→j
//
// The second line is the classic bound — a shard whose next pending
// event is at nd_i cannot emit a message arriving before nd_i +
// look[i][j]. The third line is the transitive guard the per-pair
// formula needs: shard i may be idle now but wake next window (a message
// from a third shard), and everything it ever sends after this window
// arrives strictly after end_i + look[i][j]; without this bound an
// unconstrained shard could run past a future sender's reach and receive
// a message in its own past. With positive edge weights the fixpoint is
// reached by at most n−1 Bellman–Ford relaxation passes over an n-shard
// graph.
//
// Determinism: at each barrier the messages bound for one target are
// sorted by (arrival, send time) with ties keeping (sending shard, send
// order), then injected carrying their send instant and entity tag as
// the engine's equal-deadline tie-break keys (ScheduleKeyed). The
// engine's (at, key, tag, seq) total order then places each delivery
// exactly where the equivalent single-engine schedule call — made at the
// send instant by the tagged entity — would have landed, so a sharded
// run fires events in the same order as the unsharded run. Window
// placement only affects batching, never order, so widening windows is
// an execution-only change.
type ShardGroup struct {
	engines []*Engine
	look    [][]Time // look[src][dst]; InfLookahead = no edge
	out     [][]outbox
	scratch []xmsg
	ends    []Time // per-shard window ends, written before epoch release

	// Barrier state. epoch is the release store the workers wait on;
	// ends is written before epoch and read after, so it is ordered by
	// the atomic. workers[w].ack acknowledges worker w (padded to avoid
	// false sharing between acknowledging workers).
	epoch   atomic.Uint64
	workers []workerSlot
	coord   parker
	stop    atomic.Bool
	started bool
	wg      sync.WaitGroup

	// Stats counters. Coordinator-owned fields are plain; per-worker
	// spin/yield/park counters live in the worker's slot, written only
	// by that worker and read at quiescence (the ack exchange orders
	// them).
	statWindows  uint64
	statWidthSum Time // home-shard window widths, summed
	statMsgs     uint64
	statBusy     []uint64 // windows in which shard i had a pending event
	statSpins    uint64   // coordinator-side ack-wait spins
	statYields   uint64
	statParks    uint64

	// windowHook, when set, observes each completed barrier window (see
	// SetWindowHook). Coordinator-owned.
	windowHook func(start, end Time)
}

// workerSlot is one worker's barrier endpoint: the ack word the
// coordinator waits on, the parker the coordinator pokes, and the
// worker-owned wait counters.
type workerSlot struct {
	ack    atomic.Uint64
	park   parker
	spins  uint64
	yields uint64
	parks  uint64
	_      [64]byte
}

// parker is a one-party park/unpark cell. The owner parks by storing
// parked and blocking on wake; any other party makes the owner's ready
// condition true first and then calls unpark, which hands the owner a
// wake token iff it won the parked→awake transition. At most one token
// is ever outstanding, so the buffered channel never blocks a sender.
type parker struct {
	status atomic.Int32 // 0 awake, 1 parked
	wake   chan struct{}
}

func (p *parker) unpark() {
	if p.status.CompareAndSwap(1, 0) {
		p.wake <- struct{}{}
	}
}

// park blocks until unparked, unless ready() already holds — the
// store/recheck ordering closes the race with an unparker that fired
// between the owner's last poll and the parked store.
func (p *parker) park(ready func() bool) {
	p.status.Store(1)
	if ready() {
		if !p.status.CompareAndSwap(1, 0) {
			<-p.wake // unparker won the CAS; consume its token
		}
		return
	}
	<-p.wake
}

// ShardStats is a snapshot of the group's window and barrier behavior,
// cumulative since construction or the last Reset. Read it between
// runs (coordinator goroutine) only.
type ShardStats struct {
	Windows   uint64    // barriers executed
	Messages  uint64    // cross-shard messages delivered
	AvgWindow Time      // mean home-shard window width (ps)
	Spins     uint64    // barrier spin iterations, all parties
	Yields    uint64    // runtime.Gosched calls while waiting
	Parks     uint64    // channel parks (blocking waits)
	BusyFrac  []float64 // per shard: fraction of windows it had work
}

// xmsg is one cross-shard message: fn is scheduled on the target engine
// at arrival time `at`, ordered by `sent` (the sender's clock at Send)
// and `tag` (the sending entity) against the target's own events.
type xmsg struct {
	at   Time
	sent Time
	from int32
	tag  int32
	fn   func(Time)
}

type outbox struct {
	msgs []xmsg
}

// NewShardGroup builds a group of n engines. Every pair starts at
// InfLookahead (no edge); callers must declare each src→dst pair that
// will carry messages with SetLookahead before sending on it.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: ShardGroup needs at least 1 shard, got %d", n))
	}
	g := &ShardGroup{
		engines:  make([]*Engine, n),
		look:     make([][]Time, n),
		out:      make([][]outbox, n),
		ends:     make([]Time, n),
		statBusy: make([]uint64, n),
	}
	for i := range g.engines {
		g.engines[i] = New()
		g.look[i] = make([]Time, n)
		for j := range g.look[i] {
			g.look[i][j] = InfLookahead
		}
		g.out[i] = make([]outbox, n)
	}
	if n > 1 {
		g.workers = make([]workerSlot, n-1)
		for w := range g.workers {
			g.workers[w].park.wake = make(chan struct{}, 1)
		}
	}
	g.coord.wake = make(chan struct{}, 1)
	return g
}

// Shards reports the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns shard i's engine. Between RunUntil calls the caller's
// goroutine may use any engine; during a run only shard 0's engine may
// be touched, and only from the goroutine that called RunUntil.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// SetLookahead declares the src→dst edge: a lower bound on
// (arrival − sender's clock) of every Send from src to dst. It must be
// at least 1 — zero lookahead admits no conservative window — and
// replaces any earlier declaration for the pair. Components that share
// a shard must declare the minimum of their individual bounds.
func (g *ShardGroup) SetLookahead(src, dst int, l Time) {
	if src == dst {
		panic(fmt.Sprintf("sim: lookahead %d→%d is a self-edge", src, dst))
	}
	if l < 1 {
		panic(fmt.Sprintf("sim: lookahead %d→%d is %d, must be ≥ 1", src, dst, l))
	}
	g.look[src][dst] = l
}

// SetLookaheadOut declares every outbound edge of src at once — the
// common shape for the home shard, which talks to every channel shard
// with the same minimum hop.
func (g *ShardGroup) SetLookaheadOut(src int, l Time) {
	for dst := range g.engines {
		if dst != src {
			g.SetLookahead(src, dst, l)
		}
	}
}

// SetWindowHook installs fn to observe each barrier window after it
// completes: start and end are the home shard's window bounds in
// simulated time, and fn runs on the coordinator goroutine with every
// worker quiescent, so it may read Stats(). This is the seam the
// telemetry layer's sim-timeline tracer attaches through — a callback
// rather than an import, so sim keeps its zero-dependency contract.
// Set it only between runs; nil removes the hook.
func (g *ShardGroup) SetWindowHook(fn func(start, end Time)) { g.windowHook = fn }

// Send queues fn to run on shard `to` at time `at`, ordered as entity
// `tag` (0 for untagged senders). It must be called from shard `from`'s
// goroutine (during a window) or from the coordinator between windows.
// The edge must have been declared, and `at` must respect it — both are
// checked here, because one undeclared or understated edge turns into a
// silent determinism bug several layers up.
func (g *ShardGroup) Send(from, to int, at Time, tag int32, fn func(Time)) {
	l := g.look[from][to]
	if l == InfLookahead {
		panic(fmt.Sprintf("sim: Send on undeclared edge %d→%d (SetLookahead first)", from, to))
	}
	now := g.engines[from].Now()
	if at < now+l {
		panic(fmt.Sprintf("sim: Send %d→%d at %d violates lookahead %d (sender clock %d)", from, to, at, l, now))
	}
	b := &g.out[from][to]
	b.msgs = append(b.msgs, xmsg{at: at, sent: now, from: int32(from), tag: tag, fn: fn})
}

// deliverAll drains every outbox into its target engine in deterministic
// merge order. Coordinator only, between windows.
func (g *ShardGroup) deliverAll() {
	for to, eng := range g.engines {
		buf := g.scratch[:0]
		for from := range g.engines {
			b := &g.out[from][to]
			buf = append(buf, b.msgs...)
			b.msgs = b.msgs[:0]
		}
		if len(buf) == 0 {
			continue
		}
		// Stable insertion sort by (at, sent): batches are small (a few
		// messages per window per target) and sort.Slice would allocate
		// its closure on this per-window path. Stability preserves the
		// (from, send-index) append order for fully tied keys.
		for i := 1; i < len(buf); i++ {
			m := buf[i]
			j := i - 1
			for j >= 0 && (buf[j].at > m.at || (buf[j].at == m.at && buf[j].sent > m.sent)) {
				buf[j+1] = buf[j]
				j--
			}
			buf[j+1] = m
		}
		// Injected events carry their send instant and entity tag as the
		// engine's equal-deadline tie-break keys, so a delivery sorts
		// against the target's own events exactly where the equivalent
		// single-engine schedule call (made at the send instant by the
		// tagged entity) would have landed.
		for i := range buf {
			if buf[i].at < eng.Now() {
				panic(fmt.Sprintf("sim: message from shard %d arrives at %d, behind shard %d's clock %d — lookahead contract broken",
					buf[i].from, buf[i].at, to, eng.Now()))
			}
			eng.ScheduleKeyed(buf[i].at, buf[i].sent, buf[i].tag, buf[i].fn)
		}
		g.statMsgs += uint64(len(buf))
		g.scratch = buf[:0]
	}
}

// saturating nd + l, kept below the +1 overflow line.
func addLook(nd, l Time) Time {
	if nd > maxRunTime-l {
		return maxRunTime
	}
	return nd + l
}

// horizons fills g.ends with each shard's conservative window end,
// capped at max, and reports whether any shard had pending work. See
// the type comment for the fixpoint the ends satisfy.
func (g *ShardGroup) horizons(max Time) bool {
	n := len(g.engines)
	busy := false
	for j := range g.ends {
		g.ends[j] = max
	}
	for i, e := range g.engines {
		nd, ok := e.NextDeadline()
		if !ok {
			continue
		}
		busy = true
		g.statBusy[i]++
		for j := range g.engines {
			if j == i {
				continue
			}
			if l := g.look[i][j]; l != InfLookahead {
				if h := addLook(nd, l) - 1; h < g.ends[j] {
					g.ends[j] = h
				}
			}
		}
	}
	// Transitive relaxation: everything shard i sends after this window
	// arrives strictly after end_i + look[i][j], so end_j must not outrun
	// that bound even when i is idle right now. Positive edges mean n−1
	// passes reach the fixpoint; almost always one pass suffices and the
	// loop exits early.
	for pass := 1; pass < n; pass++ {
		changed := false
		for i := range g.engines {
			for j := range g.engines {
				if i == j {
					continue
				}
				if l := g.look[i][j]; l != InfLookahead {
					if h := addLook(g.ends[i], l); h < g.ends[j] {
						g.ends[j] = h
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// A window never moves a clock backwards: a shard whose bound fell
	// below its clock (possible only through the cap) just sits out.
	for j, e := range g.engines {
		if now := e.Now(); g.ends[j] < now {
			g.ends[j] = now
		}
	}
	if busy {
		g.statWindows++
		g.statWidthSum += g.ends[0] - g.engines[0].Now()
	}
	return busy
}

// runWindow releases the workers to advance their shards to their
// window ends (already in g.ends), runs the home shard on the calling
// goroutine, and waits for all acknowledgements. The ack wait is
// deferred so that a panic escaping a home-shard callback still leaves
// every worker quiescent — after recovering, Reset restores the group
// to a runnable state.
func (g *ShardGroup) runWindow() {
	g.ensureWorkers()
	start := g.engines[0].Now()
	e := g.epoch.Add(1)
	for w := range g.workers {
		g.workers[w].park.unpark()
	}
	// LIFO defers: acks are collected first, then the hook observes the
	// fully quiescent window — and both still run if a home-shard
	// callback panics, leaving the group Reset-able.
	if g.windowHook != nil {
		defer func() { g.windowHook(start, g.ends[0]) }()
	}
	defer g.awaitAcks(e)
	g.engines[0].RunUntil(g.ends[0])
}

// awaitAcks blocks until every worker has acknowledged epoch e,
// escalating spin → yield → park per worker.
func (g *ShardGroup) awaitAcks(e uint64) {
	for w := range g.workers {
		ack := &g.workers[w].ack
		if ack.Load() >= e {
			continue
		}
		spins := 0
		for ack.Load() < e {
			spins++
			if spins <= spinBudget {
				g.statSpins++
				continue
			}
			if spins <= spinBudget+yieldBudget {
				g.statYields++
				runtime.Gosched()
				continue
			}
			g.statParks++
			g.coord.park(func() bool { return ack.Load() >= e })
			spins = 0
		}
	}
}

func (g *ShardGroup) ensureWorkers() {
	if g.stop.Load() {
		panic("sim: ShardGroup used after Close")
	}
	if g.started || len(g.engines) == 1 {
		g.started = true
		return
	}
	g.started = true
	for i := 1; i < len(g.engines); i++ {
		g.wg.Add(1)
		go g.worker(i)
	}
}

func (g *ShardGroup) worker(i int) {
	defer g.wg.Done()
	eng := g.engines[i]
	slot := &g.workers[i-1]
	last := uint64(0)
	// Wait counters accumulate in locals and are published into the
	// slot only between the epoch acquire and the ack release: the slot
	// must look frozen to the coordinator whenever it can legally read
	// it (Stats/Reset run with all acks in), and this worker spins on
	// right through those moments.
	var waitSpins, waitYields, waitParks uint64
	for {
		spins := 0
		for g.epoch.Load() == last {
			spins++
			if spins <= spinBudget {
				waitSpins++
				continue
			}
			if spins <= spinBudget+yieldBudget {
				waitYields++
				runtime.Gosched()
				continue
			}
			waitParks++
			slot.park.park(func() bool { return g.epoch.Load() != last })
			spins = 0
		}
		last = g.epoch.Load()
		if !g.stop.Load() {
			eng.RunUntil(g.ends[i])
		}
		slot.spins += waitSpins
		slot.yields += waitYields
		slot.parks += waitParks
		waitSpins, waitYields, waitParks = 0, 0, 0
		slot.ack.Store(last)
		g.coord.unpark()
		if g.stop.Load() {
			return
		}
	}
}

// RunUntil advances every shard to time t, exchanging cross-shard
// messages at window barriers. On return all engines are quiescent at t
// and the caller's goroutine owns them all; messages produced in the
// final window (arriving after t) are already delivered and pending.
func (g *ShardGroup) RunUntil(t Time) {
	for {
		g.deliverAll()
		g.horizons(t)
		final := true
		for _, end := range g.ends {
			if end < t {
				final = false
				break
			}
		}
		g.runWindow()
		if final {
			g.deliverAll()
			return
		}
	}
}

// Run advances the group until every engine is drained and every outbox
// empty — the sharded analogue of Engine.Run.
func (g *ShardGroup) Run() {
	for {
		g.deliverAll()
		if !g.horizons(maxRunTime) {
			return
		}
		g.runWindow()
	}
}

// Now reports the home shard's clock.
func (g *ShardGroup) Now() Time { return g.engines[0].Now() }

// Steps reports total events executed across all shards.
func (g *ShardGroup) Steps() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Steps()
	}
	return n
}

// Stats snapshots window and barrier counters accumulated since
// construction or the last Reset. Coordinator goroutine, between runs
// only — worker counters are read under the quiescence the last ack
// exchange established.
func (g *ShardGroup) Stats() ShardStats {
	s := ShardStats{
		Windows:  g.statWindows,
		Messages: g.statMsgs,
		Spins:    g.statSpins,
		Yields:   g.statYields,
		Parks:    g.statParks,
		BusyFrac: make([]float64, len(g.engines)),
	}
	if g.statWindows > 0 {
		s.AvgWindow = g.statWidthSum / Time(g.statWindows)
		for i, b := range g.statBusy {
			s.BusyFrac[i] = float64(b) / float64(g.statWindows)
		}
	}
	for w := range g.workers {
		s.Spins += g.workers[w].spins
		s.Yields += g.workers[w].yields
		s.Parks += g.workers[w].parks
	}
	return s
}

// Reset returns every engine to time zero, clears all outboxes and
// stats, keeping workers parked and internal storage for reuse — the
// sharded analogue of Engine.Reset. Lookahead declarations survive.
func (g *ShardGroup) Reset() {
	for _, e := range g.engines {
		e.Reset()
	}
	for from := range g.out {
		for to := range g.out[from] {
			g.out[from][to].msgs = g.out[from][to].msgs[:0]
		}
	}
	g.statWindows = 0
	g.statWidthSum = 0
	g.statMsgs = 0
	g.statSpins = 0
	g.statYields = 0
	g.statParks = 0
	for i := range g.statBusy {
		g.statBusy[i] = 0
	}
	// Workers are quiescent here (last window fully acked), so their
	// counters may be cleared from the coordinator; the next epoch
	// release publishes the writes back to them.
	for w := range g.workers {
		g.workers[w].spins = 0
		g.workers[w].yields = 0
		g.workers[w].parks = 0
	}
}

// Close terminates the worker goroutines. The group must not be run
// afterwards. Safe to call on a group that never ran.
func (g *ShardGroup) Close() {
	if !g.started || len(g.engines) == 1 {
		g.stop.Store(true)
		return
	}
	g.stop.Store(true)
	g.epoch.Add(1)
	for w := range g.workers {
		g.workers[w].park.unpark()
	}
	g.wg.Wait()
}
