package dram

import (
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// windowEdgeWalk is the reference the window edge is held to: the slot of
// the FRFCFSWindow-th live entry of the queue, walking its ring from the
// head, or −1 while fewer are live.
func windowEdgeWalk(c *channel, dir int) int32 {
	r := &c.queues[dir]
	live := 0
	for pos := 0; pos < r.n; pos++ {
		idx := r.at(pos)
		if !c.slots[idx].queued {
			continue
		}
		if live++; live == c.cfg.FRFCFSWindow {
			return idx
		}
	}
	return -1
}

// TestWindowEdgeMatchesRingWalk floods a System with a small FRFCFSWindow
// far past the window — reads and writes over a few banks and two rows a
// bank, so row hits are picked from mid-queue and leave tombstones — and
// after every event holds each channel's window edge, in both queues, to a
// walk of its ring. The bursts are spaced so the queues fill and drain
// again, taking the edge through −1 and back, and a raised bypass cap lets
// tombstones pile up behind a bypassed read head until compactRing runs.
func TestWindowEdgeMatchesRingWalk(t *testing.T) {
	cfg := testConfig()
	cfg.FRFCFSWindow = 8
	cfg.BypassCap = 1 << 10
	eng := sim.New()
	sys := New(eng, cfg)
	m := sys.mapper
	pool := mem.NewRequestPool()
	done := func(sim.Time, *mem.Request) {}
	rng := uint64(0x2545f4914f6cdd1d)
	burst := func() {
		for i := 0; i < 400; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			op := mem.Read
			if rng&3 == 0 {
				op = mem.Write
			}
			l := Loc{
				Channel: int(rng>>2) % cfg.Channels,
				Bank:    int(rng>>4) & 3,
				Row:     int64(rng>>6&15) / 15, // one request in 16 to the cold row
				Col:     int(rng>>8) % m.LinesPerRow,
			}
			sys.Access(pool.Get(unmap(m, l), op, done))
		}
	}
	const bursts = 12
	for k := 0; k < bursts; k++ {
		eng.Schedule(sim.Time(k)*4*sim.Microsecond, burst)
	}

	compactions := 0
	var edged [dirCount]bool
	base := make([][dirCount]uint64, len(sys.chans))
	for eng.Step() {
		for ci, c := range sys.chans {
			for dir := 0; dir < dirCount; dir++ {
				if got, want := c.winEdge[dir], windowEdgeWalk(c, dir); got != want {
					t.Fatalf("after event %d: channel %d queue %d has window edge %d, its ring walk gives %d",
						eng.Steps(), ci, dir, got, want)
				}
				edged[dir] = edged[dir] || c.winEdge[dir] >= 0
				// Pops only advance the ring's base; compactRing renumbers
				// from 0.
				if b := c.queues[dir].base; b < base[ci][dir] {
					compactions++
				}
				base[ci][dir] = c.queues[dir].base
			}
		}
	}
	if q := sys.Queued(); q != 0 {
		t.Fatalf("%d requests still queued after the run", q)
	}
	if got := sys.Counters(); got.Reads+got.Writes != bursts*400 {
		t.Fatalf("served %d requests, want %d", got.Reads+got.Writes, bursts*400)
	}
	if !edged[dirRead] || !edged[dirWrite] {
		t.Fatalf("a queue never held a full window (read %v, write %v): the flood is too shallow", edged[dirRead], edged[dirWrite])
	}
	if compactions == 0 {
		t.Fatal("compactRing never ran: the flood left too few tombstones to test the edge across it")
	}
	t.Logf("%d events, %d ring compactions", eng.Steps(), compactions)
}
