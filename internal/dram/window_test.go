package dram

import (
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// flood describes a request storm drawn by an xorshift generator: bursts of
// size requests, one burst every gap, over the first banks banks of every
// channel. Of every 16 requests, writes are writes and cold go to a row
// other than row 0 (one of rows−1).
type flood struct {
	seed         uint64
	bursts, size int
	gap          sim.Time
	writes, cold uint64
	banks, rows  int
}

// start schedules the flood on a new System and returns it with its engine
// and a count of served requests.
func (f flood) start(cfg Config) (*sim.Engine, *System, *int) {
	eng := sim.New()
	sys := New(eng, cfg)
	m := sys.mapper
	pool := mem.NewRequestPool()
	served := new(int)
	done := func(sim.Time, *mem.Request) { *served++ }
	rng := f.seed | 1
	burst := func() {
		for i := 0; i < f.size; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			op := mem.Read
			if rng&15 < f.writes {
				op = mem.Write
			}
			l := Loc{
				Channel: int(rng>>2) % cfg.Channels,
				Bank:    int(rng>>4) % f.banks,
				Col:     int(rng>>8) % m.LinesPerRow,
			}
			if rng>>16&15 < f.cold && f.rows > 1 {
				l.Row = 1 + int64(rng>>20)%int64(f.rows-1)
			}
			sys.Access(pool.Get(unmap(m, l), op, done))
		}
	}
	for k := 0; k < f.bursts; k++ {
		eng.Schedule(sim.Time(k)*f.gap, burst)
	}
	return eng, sys, served
}

// drained fails unless the flood's run served every request and left the
// queues empty.
func (f flood) drained(tb testing.TB, sys *System, served int) {
	tb.Helper()
	if q := sys.Queued(); q != 0 {
		tb.Fatalf("%d requests still queued after the run", q)
	}
	if served != f.bursts*f.size {
		tb.Fatalf("served %d requests, want %d", served, f.bursts*f.size)
	}
}

// queueEntries walks the queue from its head and returns its slots in
// arrival order, failing on a broken list: an older link that does not point
// back, a seq that does not increase, a tail or count that disagrees with
// the walk.
func queueEntries(tb testing.TB, c *channel, dir int, buf []int32) []int32 {
	tb.Helper()
	q := &c.queues[dir]
	buf = buf[:0]
	prev := int32(-1)
	for idx := q.head; idx >= 0; idx = c.slots[idx].newer {
		s := &c.slots[idx]
		if s.older != prev || (prev >= 0 && s.seq <= c.slots[prev].seq) || s.req == nil {
			tb.Fatalf("queue %d broken at slot %d: older %d (want %d), seq %d", dir, idx, s.older, prev, s.seq)
		}
		buf = append(buf, idx)
		prev = idx
	}
	if q.tail != prev || q.n != len(buf) {
		tb.Fatalf("queue %d: tail %d and count %d, its walk gives %d and %d", dir, q.tail, q.n, prev, len(buf))
	}
	return buf
}

// TestWindowEdgeMatchesQueueWalk floods a System with a small FRFCFSWindow
// far past the window — reads and writes over a few banks and two rows a
// bank, so row hits are picked from mid-queue — and after every event holds
// each channel's window edge, in both queues, to the FRFCFSWindow-th entry
// of a walk of its list. The bursts are spaced so the queues fill and drain
// again, taking the edge through −1 and back, and a raised bypass cap lets
// hits leave from deep behind a bypassed read head.
func TestWindowEdgeMatchesQueueWalk(t *testing.T) {
	cfg := testConfig()
	cfg.FRFCFSWindow = 8
	cfg.BypassCap = 1 << 10
	f := flood{seed: 0x2545f4914f6cdd1d, bursts: 12, size: 400, gap: 4 * sim.Microsecond,
		writes: 4, cold: 1, banks: 4, rows: 2}
	eng, sys, served := f.start(cfg)

	var edged [dirCount]bool
	var walk []int32
	for eng.Step() {
		for ci, c := range sys.chans {
			for dir := 0; dir < dirCount; dir++ {
				walk = queueEntries(t, c, dir, walk)
				want := int32(-1)
				if len(walk) >= cfg.FRFCFSWindow {
					want = walk[cfg.FRFCFSWindow-1]
				}
				if got := c.queues[dir].edge; got != want {
					t.Fatalf("after event %d: channel %d queue %d has window edge %d, its walk gives %d",
						eng.Steps(), ci, dir, got, want)
				}
				edged[dir] = edged[dir] || want >= 0
			}
		}
	}
	f.drained(t, sys, *served)
	if !edged[dirRead] || !edged[dirWrite] {
		t.Fatalf("a queue never held a full window (read %v, write %v): the flood is too shallow", edged[dirRead], edged[dirWrite])
	}
	t.Logf("%d events", eng.Steps())
}
