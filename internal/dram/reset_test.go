package dram

import (
	"fmt"
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// completionRec is one observed completion: the fire instant plus enough
// request identity to detect any reordering.
type completionRec struct {
	at   sim.Time
	addr uint64
	op   mem.Op
}

// driveClosedLoop saturates the system with a mixed read/write xorshift
// walk — every address in a fresh row, all channels busy, write-queue drains
// exercised — and returns the completion trace. hop is the core→controller
// flight time of the timed hand-off.
func driveClosedLoop(t *testing.T, eng *sim.Engine, sys *System, hop sim.Time, n int) []completionRec {
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
		sys.AccessAt(req, eng.Now()+hop)
	}
	for i := 0; i < 192; i++ {
		issue()
	}
	eng.Run()
	if completed < target {
		t.Fatalf("completed %d of %d requests", completed, target)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d requests still live after drain", live)
	}
	return trace
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

// abandon leaves a system mid-flight, the state a sweep point ends in: a
// burst of requests from a pool of its own, simulated only partway, so that
// controller queues hold requests and decide and completion events are
// pending when the caller resets engine and system.
func abandon(t *testing.T, eng *sim.Engine, sys *System, hop sim.Time) {
	t.Helper()
	pool := mem.NewRequestPool()
	done := func(sim.Time, *mem.Request) {}
	for i := uint64(0); i < 600; i++ {
		op := mem.Read
		if i%2 == 1 {
			op = mem.Write
		}
		sys.AccessAt(pool.Get(i*8256, op, done), eng.Now()+hop)
	}
	eng.RunUntil(eng.Now() + hop + 200*sim.Nanosecond)
	if q := sys.Queued(); q < 100 || eng.Pending() == 0 {
		t.Fatalf("abandoned with %d queued requests and %d pending events: not mid-flight", q, eng.Pending())
	}
}

// TestResetMatchesFresh is the memory-system half of the warm-rig gate: a
// System that was abandoned mid-flight and Reset (with its engine) must
// complete the randomized closed-loop traffic at the same instants, in the
// same order and with the same statistics as a newly built one — three times
// over, so that state surviving one reset would show.
func TestResetMatchesFresh(t *testing.T) {
	cfg := DDR4(2666, 3, 2)
	hop := sim.Time(22250)
	const n = 8000
	fresh := New(sim.New(), cfg)
	ref := driveClosedLoop(t, fresh.eng, fresh, hop, n)
	refLat, refN := fresh.ObservedReadLatency()

	eng := sim.New()
	sys := New(eng, cfg)
	for round := 0; round < 3; round++ {
		abandon(t, eng, sys, hop)
		eng.Reset()
		sys.Reset()
		if q := sys.Queued(); q != 0 || sys.Counters() != (mem.Counters{}) || sys.RowStats() != (RowStats{}) {
			t.Fatalf("round %d: reset left %d queued, counters %v, row stats %+v", round, q, sys.Counters(), sys.RowStats())
		}
		got := driveClosedLoop(t, eng, sys, hop, n)
		diffTraces(t, fmt.Sprintf("round %d", round), ref, got)
		lat, ln := sys.ObservedReadLatency()
		if sys.Counters() != fresh.Counters() || sys.RowStats() != fresh.RowStats() || lat != refLat || ln != refN {
			t.Fatalf("round %d: statistics differ from a fresh system's", round)
		}
	}
}
