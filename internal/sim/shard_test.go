package sim

import (
	"testing"
)

// TestScheduleKeyedOrder pins the keyed total order: equal-deadline
// events fire by (schedule/send instant, entity tag, schedule order), and
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

// TestShardGroupMergeOrder drives equal-arrival cross-shard messages from
// two shards and checks they fire on the home engine in send-instant order
// with tag breaking exact ties — independent of which shard's outbox
// drains first.
func TestShardGroupMergeOrder(t *testing.T) {
	g := NewShardGroup(3)
	defer g.Close()
	g.SetLookahead(1, 0, 100)
	g.SetLookahead(2, 0, 100)
	var order []int
	rec := func(id int) func(Time) {
		return func(Time) { order = append(order, id) }
	}
	// Shard 2 sends earlier (instant 10) than shard 1 (instant 20), both
	// arriving at 1000: the instant must win over the shard index. Two
	// sends from shard 1 at the same instant with different tags order by
	// tag even though appended in the opposite order.
	g.Engine(2).Schedule(10, func() { g.Send(2, 0, 1000, 9, rec(1)) })
	g.Engine(1).Schedule(20, func() {
		g.Send(1, 0, 1000, 7, rec(3))
		g.Send(1, 0, 1000, 6, rec(2))
	})
	// A home event at the same deadline scheduled at instant 0: first.
	g.Engine(0).ScheduleKeyed(1000, 0, 0, rec(0))
	g.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order %v, want [0 1 2 3]", order)
		}
	}
}

// TestShardGroupConservativeWindows checks messages land on time under the
// lookahead contract even when the sender's clock runs far ahead of the
// receiver between barriers.
func TestShardGroupConservativeWindows(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	const look = 50
	g.SetLookahead(1, 0, look)
	var got []Time
	var tick func()
	n := 0
	tick = func() {
		at := g.Engine(1).Now() + look
		g.Send(1, 0, at, 0, func(fireAt Time) {
			if now := g.Engine(0).Now(); now != fireAt {
				t.Errorf("delivery fired at %d, scheduled for %d", now, fireAt)
			}
			got = append(got, fireAt)
		})
		n++
		if n < 100 {
			g.Engine(1).After(7, tick)
		}
	}
	g.Engine(1).Schedule(1, tick)
	g.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d messages, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("deliveries out of order: %d after %d", got[i], got[i-1])
		}
	}
}

// TestShardGroupRunUntilReset checks partial advance and reuse: RunUntil
// leaves every engine quiescent at t, Reset returns the group to time
// zero with outboxes cleared, and a second run reproduces the first.
func TestShardGroupRunUntilReset(t *testing.T) {
	run := func(g *ShardGroup) int {
		fired := 0
		var tick func()
		tick = func() {
			fired++
			g.Send(1, 0, g.Engine(1).Now()+1, 0, func(Time) {})
			if fired < 500 {
				g.Engine(1).After(3, tick)
			}
		}
		g.Engine(1).Schedule(0, tick)
		g.RunUntil(600)
		if g.Now() != 600 {
			t.Fatalf("home clock %d after RunUntil(600)", g.Now())
		}
		g.Run()
		return fired
	}
	g := NewShardGroup(2)
	defer g.Close()
	g.SetLookahead(1, 0, 1)
	first := run(g)
	g.Reset()
	if g.Now() != 0 {
		t.Fatalf("home clock %d after Reset", g.Now())
	}
	second := run(g)
	if first != second || first != 500 {
		t.Fatalf("runs fired %d then %d events, want 500 both", first, second)
	}
}

// TestShardGroupGuards pins the misuse panics: zero shards, invalid
// lookahead declarations, undeclared or understated sends, and running
// a closed group.
func TestShardGroupGuards(t *testing.T) {
	expectPanic(t, "zero shards", func() { NewShardGroup(0) })
	expectPanic(t, "zero lookahead", func() {
		g := NewShardGroup(2)
		defer g.Close()
		g.SetLookahead(1, 0, 0)
	})
	expectPanic(t, "negative lookahead", func() {
		g := NewShardGroup(2)
		defer g.Close()
		g.SetLookahead(0, 1, -5)
	})
	expectPanic(t, "self-edge lookahead", func() {
		g := NewShardGroup(2)
		defer g.Close()
		g.SetLookahead(1, 1, 10)
	})
	expectPanic(t, "send on undeclared edge", func() {
		g := NewShardGroup(2)
		defer g.Close()
		g.Send(1, 0, 100, 0, func(Time) {})
	})
	expectPanic(t, "send below declared lookahead", func() {
		g := NewShardGroup(2)
		defer g.Close()
		g.SetLookahead(1, 0, 50)
		g.Send(1, 0, 49, 0, func(Time) {})
	})
	expectPanic(t, "run after Close", func() {
		g := NewShardGroup(2)
		g.Engine(1).Schedule(5, func() {})
		g.Run()
		g.Close()
		g.Engine(1).Schedule(5, func() {})
		g.Run()
	})
	expectPanic(t, "run after Close, never started", func() {
		g := NewShardGroup(2)
		g.Close()
		g.Engine(1).Schedule(5, func() {})
		g.Run()
	})
}

// TestShardGroupPerPairWindows pins the point of the lookahead matrix: a
// shard with no outbound edges (or only high-latency ones) must not
// throttle everyone else's windows. Shard 2 executes 1000 internal events
// it never tells anyone about; were every one of them to bound the window
// (one global horizon, the minimum over all shards) the drain would take
// over a thousand barriers, while per-pair horizons let shard 2 run its
// whole schedule inside a handful of windows. The chatter between shards
// 1 and 0 must land on its instants regardless.
func TestShardGroupPerPairWindows(t *testing.T) {
	g := NewShardGroup(3)
	defer g.Close()
	g.SetLookahead(1, 0, 10)
	g.SetLookahead(0, 1, 10)
	g.SetLookahead(0, 2, 10000)
	var trace []Time
	var chat func()
	n := 0
	chat = func() {
		at := g.Engine(1).Now() + 10
		g.Send(1, 0, at, 1, func(fireAt Time) { trace = append(trace, fireAt) })
		n++
		if n < 50 {
			g.Engine(1).After(10, chat)
		}
	}
	g.Engine(1).Schedule(1, chat)
	var spin func()
	m := 0
	spin = func() {
		m++
		if m < 1000 {
			g.Engine(2).After(1, spin)
		}
	}
	g.Engine(2).Schedule(1, spin)
	g.Run()

	if len(trace) != 50 {
		t.Fatalf("trace has %d deliveries, want 50", len(trace))
	}
	for i, at := range trace {
		if want := Time(11 + 10*i); at != want {
			t.Fatalf("delivery %d at %d, want %d", i, at, want)
		}
	}
	if m != 1000 {
		t.Fatalf("shard 2 ran %d of its 1000 events", m)
	}
	if w := g.Stats().Windows; w >= 250 {
		t.Fatalf("%d windows: shard 2's 1000 silent events are bounding the others' windows", w)
	}
}

// TestShardGroupResetAfterPanic checks the group survives a panic that
// escapes a home-shard callback mid-window: the deferred ack wait
// leaves the workers quiescent, so after recovering the caller can
// Reset and reuse the group.
func TestShardGroupResetAfterPanic(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	g.SetLookahead(1, 0, 5)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("home-shard panic did not propagate")
			}
		}()
		g.Engine(1).Schedule(1, func() {
			g.Send(1, 0, g.Engine(1).Now()+5, 0, func(Time) {})
		})
		g.Engine(0).Schedule(3, func() { panic("boom") })
		g.Run()
	}()

	g.Reset()
	if g.Now() != 0 {
		t.Fatalf("home clock %d after Reset", g.Now())
	}
	delivered := 0
	g.Engine(1).Schedule(1, func() {
		g.Send(1, 0, g.Engine(1).Now()+5, 0, func(Time) { delivered++ })
	})
	g.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d messages after panic+Reset, want 1", delivered)
	}
}

// TestShardGroupStats sanity-checks the counters: windows and messages
// accumulate during a run, busy fractions are per shard and bounded,
// and Reset clears everything.
func TestShardGroupStats(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	g.SetLookahead(1, 0, 5)
	for i := 0; i < 20; i++ {
		at := Time(1 + i*10)
		g.Engine(1).Schedule(at, func() {
			g.Send(1, 0, g.Engine(1).Now()+5, 0, func(Time) {})
		})
	}
	g.Run()
	s := g.Stats()
	if s.Windows == 0 {
		t.Fatal("no windows counted")
	}
	if s.Messages != 20 {
		t.Fatalf("counted %d messages, want 20", s.Messages)
	}
	if s.AvgWindow <= 0 {
		t.Fatalf("average window width %d, want > 0", s.AvgWindow)
	}
	if len(s.BusyFrac) != 2 {
		t.Fatalf("busy fractions for %d shards, want 2", len(s.BusyFrac))
	}
	for i, f := range s.BusyFrac {
		if f < 0 || f > 1 {
			t.Fatalf("shard %d busy fraction %v out of [0,1]", i, f)
		}
	}
	if s.BusyFrac[1] == 0 {
		t.Fatal("shard 1 did all the work but has zero busy fraction")
	}
	g.Reset()
	s = g.Stats()
	if s.Windows != 0 || s.Messages != 0 || s.Spins != 0 {
		t.Fatalf("stats not cleared by Reset: %+v", s)
	}
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
