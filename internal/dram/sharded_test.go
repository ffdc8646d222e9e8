package dram

import (
	"fmt"
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// completionRec is one observed completion on the home engine: the fire
// instant plus enough request identity to detect any reordering.
type completionRec struct {
	at   sim.Time
	addr uint64
	op   mem.Op
}

// driveClosedLoop saturates the backend from the home engine with a mixed
// read/write xorshift walk — every address in a fresh row, all channels
// busy, write-queue drains exercised — and returns the completion trace.
// hop is the core→controller flight time (the home lookahead under
// sharding).
func driveClosedLoop(t *testing.T, eng *sim.Engine, run func(), backend mem.TimedBackend, hop sim.Time, n int) []completionRec {
	t.Helper()
	pool := mem.NewRequestPool()
	trace := make([]completionRec, 0, n)
	rng := uint64(0x9e3779b97f4a7c15)
	line := uint64(0)
	completed, target := 0, n
	var issue func()
	var done mem.DoneFunc
	done = func(at sim.Time, req *mem.Request) {
		trace = append(trace, completionRec{eng.Now(), req.Addr, req.Op})
		completed++
		if completed < target {
			issue()
		}
	}
	issue = func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		addr := rng % (1 << 30) &^ 63
		op := mem.Read
		if line%3 == 2 {
			op = mem.Write
		}
		line++
		req := pool.Get(addr, op, done)
		backend.AccessAt(req, eng.Now()+hop)
	}
	for i := 0; i < 192; i++ {
		issue()
	}
	run()
	if completed < target {
		t.Fatalf("completed %d of %d requests", completed, target)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d requests still live after drain", live)
	}
	return trace
}

// unshardedTrace is the single-engine reference trace for cfg.
func unshardedTrace(t *testing.T, cfg Config, hop sim.Time, n int) []completionRec {
	t.Helper()
	eng := sim.New()
	sys := New(eng, cfg)
	return driveClosedLoop(t, eng, eng.Run, sys, hop, n)
}

func diffTraces(t *testing.T, label string, ref, got []completionRec) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: completion %d = %+v, want %+v", label, i, got[i], ref[i])
		}
	}
}

// TestShardedMatchesUnsharded is the sharded engine's bit-exactness gate at
// the memory-system level: channels spread over concurrently advancing
// shard engines must complete every request at the same instant and in the
// same order as the single-engine system, for every shard count.
func TestShardedMatchesUnsharded(t *testing.T) {
	cfg := DDR4(2666, 3, 2)
	hop := sim.Time(22250)
	const n = 20000
	ref := unshardedTrace(t, cfg, hop, n)

	for _, shards := range []int{2, 3, 4} {
		group := sim.NewShardGroup(shards)
		sh := NewSharded(group, cfg, 0)
		group.SetLookaheadOut(0, hop)
		got := driveClosedLoop(t, group.Engine(0), group.Run, sh, hop, n)
		group.Close()
		diffTraces(t, fmt.Sprintf("shards=%d", shards), ref, got)
	}
}

// TestShardedAggregatesMatch checks the quiescent statistics surfaces:
// counters, row-buffer outcomes and observed read latency aggregate across
// shard engines to exactly the unsharded totals.
func TestShardedAggregatesMatch(t *testing.T) {
	cfg := DDR4(2666, 3, 2)
	hop := sim.Time(22250)
	const n = 8000

	eng := sim.New()
	sys := New(eng, cfg)
	driveClosedLoop(t, eng, eng.Run, sys, hop, n)

	group := sim.NewShardGroup(3)
	defer group.Close()
	sh := NewSharded(group, cfg, 0)
	group.SetLookaheadOut(0, hop)
	driveClosedLoop(t, group.Engine(0), group.Run, sh, hop, n)

	if a, b := sys.Counters(), sh.Counters(); a != b {
		t.Errorf("counters: sharded %+v, unsharded %+v", b, a)
	}
	if a, b := sys.RowStats(), sh.RowStats(); a != b {
		t.Errorf("row stats: sharded %+v, unsharded %+v", b, a)
	}
	aLat, aN := sys.ObservedReadLatency()
	bLat, bN := sh.ObservedReadLatency()
	if aLat != bLat || aN != bN {
		t.Errorf("read latency: sharded (%d, %d), unsharded (%d, %d)", bLat, bN, aLat, aN)
	}
	if a, b := sys.Queued(), sh.Queued(); a != 0 || b != 0 {
		t.Errorf("queued after drain: sharded %d, unsharded %d", b, a)
	}
}

// TestShardedRandomAssignments asserts the channel→shard placement is
// execution-only: any valid assignment — including lopsided ones packing
// every channel on one shard — produces the identical completion trace.
func TestShardedRandomAssignments(t *testing.T) {
	cfg := DDR4(2666, 4, 2)
	hop := sim.Time(22250)
	const n = 12000
	ref := unshardedTrace(t, cfg, hop, n)

	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 6; trial++ {
		shards := 2 + next(4) // 2..5 shards: home plus 1..4 channel shards
		assign := make([]int, cfg.Channels)
		for i := range assign {
			assign[i] = 1 + next(shards-1) // never the home shard
		}
		group := sim.NewShardGroup(shards)
		sh := NewShardedAssigned(group, cfg, 0, assign)
		group.SetLookaheadOut(0, hop)
		got := driveClosedLoop(t, group.Engine(0), group.Run, sh, hop, n)
		group.Close()
		diffTraces(t, fmt.Sprintf("trial %d shards=%d assign=%v", trial, shards, assign), ref, got)
	}
}

// TestShardedGuards pins the misuse panics: an untimed Access has no
// conservative window to cross shards in, a one-shard group has nowhere to
// put channels, and a home-shard assignment would run a channel on the
// issuing goroutine.
func TestShardedGuards(t *testing.T) {
	cfg := DDR4(2666, 2, 1)
	group := sim.NewShardGroup(2)
	defer group.Close()
	sh := NewSharded(group, cfg, 0)
	group.SetLookaheadOut(0, sim.Time(22250))

	expectPanic(t, "untimed Access", func() {
		sh.Access(&mem.Request{Addr: 0, Op: mem.Read})
	})
	expectPanic(t, "one-shard group", func() {
		g := sim.NewShardGroup(1)
		defer g.Close()
		NewSharded(g, cfg, 0)
	})
	expectPanic(t, "home-shard assignment", func() {
		g := sim.NewShardGroup(2)
		defer g.Close()
		NewShardedAssigned(g, cfg, 0, []int{0, 1})
	})
	expectPanic(t, "assignment length", func() {
		g := sim.NewShardGroup(2)
		defer g.Close()
		NewShardedAssigned(g, cfg, 0, []int{1})
	})
}

func expectPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", label)
		}
	}()
	fn()
}

// abandon leaves a backend mid-flight, the state a sweep point ends in: a
// burst of requests from a pool of its own, simulated only partway, so that
// controller queues hold requests and decide and completion events are
// pending when the caller resets engine and backend.
func abandon(t *testing.T, eng *sim.Engine, runUntil func(sim.Time), backend mem.TimedBackend, queued func() int, hop sim.Time) {
	t.Helper()
	pool := mem.NewRequestPool()
	done := func(sim.Time, *mem.Request) {}
	for i := uint64(0); i < 600; i++ {
		op := mem.Read
		if i%2 == 1 {
			op = mem.Write
		}
		backend.AccessAt(pool.Get(i*8256, op, done), eng.Now()+hop)
	}
	runUntil(eng.Now() + hop + 200*sim.Nanosecond)
	if q := queued(); q < 100 || eng.Pending() == 0 {
		t.Fatalf("abandoned with %d queued requests and %d pending events: not mid-flight", q, eng.Pending())
	}
}

// TestResetMatchesFresh is the memory-system half of the warm-rig gate: a
// System or Sharded that was abandoned mid-flight and Reset (with its
// engines) must complete the randomized closed-loop traffic at the same
// instants, in the same order and with the same statistics as a newly built
// one — three times over, so that state surviving one reset would show.
func TestResetMatchesFresh(t *testing.T) {
	cfg := DDR4(2666, 3, 2)
	hop := sim.Time(22250)
	const n = 8000
	fresh := New(sim.New(), cfg)
	ref := driveClosedLoop(t, fresh.eng, fresh.eng.Run, fresh, hop, n)
	refLat, refN := fresh.ObservedReadLatency()

	type system interface {
		mem.TimedBackend
		Reset()
		Queued() int
		Counters() mem.Counters
		RowStats() RowStats
		ObservedReadLatency() (sim.Time, uint64)
	}
	check := func(label string, eng *sim.Engine, run func(), runUntil func(sim.Time), reset func(), sys system) {
		for round := 0; round < 3; round++ {
			abandon(t, eng, runUntil, sys, sys.Queued, hop)
			reset()
			sys.Reset()
			if q := sys.Queued(); q != 0 || sys.Counters() != (mem.Counters{}) || sys.RowStats() != (RowStats{}) {
				t.Fatalf("%s round %d: reset left %d queued, counters %v, row stats %+v", label, round, q, sys.Counters(), sys.RowStats())
			}
			got := driveClosedLoop(t, eng, run, sys, hop, n)
			diffTraces(t, fmt.Sprintf("%s round %d", label, round), ref, got)
			lat, ln := sys.ObservedReadLatency()
			if sys.Counters() != fresh.Counters() || sys.RowStats() != fresh.RowStats() || lat != refLat || ln != refN {
				t.Fatalf("%s round %d: statistics differ from a fresh system's", label, round)
			}
		}
	}

	eng := sim.New()
	check("system", eng, eng.Run, eng.RunUntil, eng.Reset, New(eng, cfg))
	for _, shards := range []int{2, 3, 4} {
		group := sim.NewShardGroup(shards)
		sh := NewSharded(group, cfg, 0)
		group.SetLookaheadOut(0, hop)
		check(fmt.Sprintf("shards=%d", shards), group.Engine(0), group.Run, group.RunUntil, group.Reset, sh)
		group.Close()
	}
}
