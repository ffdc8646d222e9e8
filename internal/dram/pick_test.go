package dram

import (
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// pending is a queued request as the scan reference sees it.
type pending struct {
	slot int32
	seq  uint64
	bi   int32
	row  int64
}

// chanSnap is what pick may read of one channel, copied before an event:
// both queues in arrival order, each bank's open row and availability
// deadline, the last CAS bank and the read head's bypass state.
type chanSnap struct {
	queue       [dirCount][]pending
	openRow     []int64
	availUntil  []sim.Time
	lastCASBank int32
	headSeq     uint64
	bypass      int
	bursts      uint64
}

func (s *chanSnap) take(tb testing.TB, c *channel, walk []int32) []int32 {
	for dir := 0; dir < dirCount; dir++ {
		walk = queueEntries(tb, c, dir, walk)
		s.queue[dir] = s.queue[dir][:0]
		for _, idx := range walk {
			r := &c.slots[idx]
			s.queue[dir] = append(s.queue[dir], pending{idx, r.seq, r.bi, r.row})
		}
	}
	s.openRow, s.availUntil = s.openRow[:0], s.availUntil[:0]
	for i := range c.banks {
		s.openRow = append(s.openRow, c.banks[i].openRow)
		s.availUntil = append(s.availUntil, c.banks[i].availUntil)
	}
	s.lastCASBank = c.lastCASBank
	s.headSeq, s.bypass = c.readHeadSeq, c.readHeadBypass
	s.bursts = c.rowStats.Total()
	return walk
}

// Pick kinds, for the flood's coverage report.
const (
	pickForced     = iota // the read head, bypassed BypassCap times
	pickOtherBank         // the oldest windowed hit on another bank than the last CAS
	pickSameBank          // the oldest windowed hit on the last CAS's bank
	pickHead              // no hit in the window: the head
	pickHeadHidden        // the head, while a hit waited beyond the window
	pickKinds
)

// scanPick states pick's rules as a scan of the snapshot at instant now. It
// returns the position in the queue to issue, the head's bypass count after
// the pick and the rule that chose it.
func scanPick(s *chanSnap, cfg *Config, dir int, now sim.Time) (pos, bypass, kind int) {
	q := s.queue[dir]
	if dir == dirRead {
		if q[0].seq == s.headSeq {
			bypass = s.bypass
		}
		if cfg.BypassCap > 0 && bypass >= cfg.BypassCap {
			return 0, bypass, pickForced
		}
	}
	other, same, hidden := -1, -1, false
	for i, r := range q {
		bi := r.bi
		if s.openRow[bi] != r.row || now > s.availUntil[bi] {
			continue // availability is rowAvail's, from the bank itself
		}
		switch {
		case i >= cfg.FRFCFSWindow:
			hidden = true
		case bi != s.lastCASBank && other < 0:
			other = i
		case bi == s.lastCASBank && same < 0:
			same = i
		}
	}
	switch {
	case other >= 0:
		pos, kind = other, pickOtherBank
	case same >= 0:
		pos, kind = same, pickSameBank
	case hidden:
		kind = pickHeadHidden
	default:
		kind = pickHead
	}
	if dir == dirRead && pos != 0 {
		bypass++
	}
	return pos, bypass, kind
}

// checkPicks runs the flood one event at a time and holds every burst a
// channel commits to scanPick on the channel as it stood before the event.
// It returns how often each rule chose.
func checkPicks(tb testing.TB, cfg Config, f flood) [pickKinds]int {
	eng, sys, served := f.start(cfg)
	cfg = sys.cfg
	snaps := make([]chanSnap, len(sys.chans))
	var walk []int32
	var kinds [pickKinds]int
	for {
		for ci, c := range sys.chans {
			walk = snaps[ci].take(tb, c, walk)
		}
		if !eng.Step() {
			break
		}
		for ci, c := range sys.chans {
			s := &snaps[ci]
			if c.rowStats.Total() == s.bursts {
				continue
			}
			// The event was this channel's decide: exactly one request left
			// one queue, and nothing arrived.
			dir := -1
			for d := 0; d < dirCount; d++ {
				if c.queues[d].n != len(s.queue[d]) {
					dir = d
				}
			}
			if dir < 0 || c.queues[dir].n != len(s.queue[dir])-1 || c.queues[1-dir].n != len(s.queue[1-dir]) {
				tb.Fatalf("event %d: channel %d committed a burst, queues %d/%d → %d/%d",
					eng.Steps(), ci, len(s.queue[0]), len(s.queue[1]), c.queues[0].n, c.queues[1].n)
			}
			walk = queueEntries(tb, c, dir, walk)
			got := len(walk) // position of the issued request: the first the queue lost
			for i, idx := range walk {
				if c.slots[idx].seq != s.queue[dir][i].seq {
					got = i
					break
				}
			}
			pos, bypass, kind := scanPick(s, &cfg, dir, eng.Now())
			if got != pos {
				tb.Fatalf("event %d at %v: channel %d queue %d issued slot %d (position %d), the scan picks slot %d (position %d, rule %d)",
					eng.Steps(), eng.Now(), ci, dir, s.queue[dir][got].slot, got, s.queue[dir][pos].slot, pos, kind)
			}
			if dir == dirRead && (c.readHeadSeq != s.queue[dir][0].seq || c.readHeadBypass != bypass) {
				tb.Fatalf("event %d: channel %d read head seq %d bypassed %d times, the scan gives seq %d and %d",
					eng.Steps(), ci, c.readHeadSeq, c.readHeadBypass, s.queue[dir][0].seq, bypass)
			}
			kinds[kind]++
		}
	}
	f.drained(tb, sys, *served)
	return kinds
}

// scanFloods are TestPickMatchesScan's cases and the fuzzer's seed corpus:
// the window test's flood on the preset controller (so idle-closed rows
// count too), a tight bypass cap, and a wide bank and row spread.
var scanFloods = []struct {
	f              flood
	window, bypass int
}{
	{flood{seed: 0x2545f4914f6cdd1d, bursts: 6, size: 300, gap: 4 * sim.Microsecond, writes: 4, cold: 1, banks: 4, rows: 2}, 8, 1 << 10},
	{flood{seed: 0x9e3779b97f4a7c15, bursts: 6, size: 300, gap: 3 * sim.Microsecond, writes: 2, cold: 4, banks: 3, rows: 3}, 12, 2},
	{flood{seed: 0xd1b54a32d192ed03, bursts: 4, size: 300, gap: 2 * sim.Microsecond, writes: 8, cold: 8, banks: 16, rows: 4}, 32, 16},
}

func scanConfig(window, bypass int) Config {
	cfg := DDR4(2666, 2, 1)
	cfg.FRFCFSWindow, cfg.BypassCap = window, bypass
	return cfg
}

// TestPickMatchesScan holds pick to scanPick, the plain statement of its
// rules, on every burst of floods past a small FRFCFSWindow, and checks the
// floods reach every rule: a forced head, hits on another and on the same
// bank, and a head served while a hit waited beyond the window.
func TestPickMatchesScan(t *testing.T) {
	var total [pickKinds]int
	for _, c := range scanFloods {
		k := checkPicks(t, scanConfig(c.window, c.bypass), c.f)
		for i := range k {
			total[i] += k[i]
		}
	}
	for kind, n := range total {
		if n == 0 {
			t.Fatalf("no pick chose by rule %d (counts %v): the floods are too shallow", kind, total)
		}
	}
	t.Logf("picks by rule (forced, other bank, same bank, head, head past a hidden hit): %v", total)
}

// FuzzPickMatchesScan is TestPickMatchesScan over fuzzed floods: the seed,
// FRFCFSWindow, BypassCap, the write share and the bank and row spread.
func FuzzPickMatchesScan(f *testing.F) {
	for _, c := range scanFloods {
		f.Add(c.f.seed, uint8(c.window-1), uint16(c.bypass-1), uint8(c.f.writes), uint8(c.f.banks-1), uint8(c.f.rows-1), uint8(c.f.cold))
	}
	f.Fuzz(func(t *testing.T, seed uint64, window uint8, bypass uint16, writes, banks, rows, cold uint8) {
		fl := flood{seed: seed, bursts: 3, size: 150, gap: 2 * sim.Microsecond,
			writes: uint64(writes % 17), cold: uint64(cold % 17), banks: 1 + int(banks)%16, rows: 1 + int(rows)%8}
		checkPicks(t, scanConfig(1+int(window)%64, 1+int(bypass)), fl)
	})
}

// TestBypassCapBoundsReadHead queues a row-miss read head on a bank and row
// hits to the bank's open row behind it. The hits bypass the head exactly
// BypassCap times before it is served. Each next head starts again from
// zero, also the one that reuses the served head's pooled record while the
// channel still holds that head's bypass count.
func TestBypassCapBoundsReadHead(t *testing.T) {
	cfg := testConfig()
	cfg.Timing.REFI = 0 // no refresh closes the open row under the test
	const k = 4
	cfg.BypassCap = k
	eng := sim.New()
	sys := New(eng, cfg)
	m := sys.mapper
	addr := func(row int64, col int) uint64 {
		return unmap(m, Loc{Row: row, Col: col % m.LinesPerRow})
	}
	hitPool, headPool := mem.NewRequestPool(), mem.NewRequestPool()
	served, bypasses := 0, -1
	hitDone := func(sim.Time, *mem.Request) { served++ }
	headDone := func(sim.Time, *mem.Request) { bypasses = served }

	// round queues a read head to headRow, then `hits` reads to hitRow (the
	// open row), runs the engine dry and returns the head's record and how
	// many of those reads were served before it.
	round := func(headRow, hitRow int64, hits int) (*mem.Request, int) {
		served, bypasses = 0, -1
		head := headPool.Get(addr(headRow, 0), mem.Read, headDone)
		sys.Access(head)
		for i := 0; i < hits; i++ {
			sys.Access(hitPool.Get(addr(hitRow, i+1), mem.Read, hitDone))
		}
		eng.Run()
		return head, bypasses
	}

	sys.Access(hitPool.Get(addr(0, 0), mem.Read, hitDone)) // open row 0
	eng.Run()
	// More hits than the cap: the head is forced after k of them. The rest
	// find row 1 open, so the first reopens row 0.
	if _, n := round(1, 0, 3*k); n != k {
		t.Fatalf("first head served after %d bypasses, want BypassCap = %d", n, k)
	}
	// Exactly k hits: the head is served last, and its count stays at k.
	h2, n := round(2, 0, k)
	if n != k {
		t.Fatalf("second head served after %d bypasses, want %d", n, k)
	}
	// The next head is the same pooled record, and the channel's last read
	// head: it must start again from zero, not inherit k.
	h3, n := round(3, 2, 3*k)
	if h3 != h2 {
		t.Fatal("the third head does not reuse the second head's record: the test no longer covers the aliasing case")
	}
	if n != k {
		t.Fatalf("a head reusing the previous head's record was served after %d bypasses, want %d", n, k)
	}
}
