package dram

import (
	"math/bits"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// RowStats counts row-buffer outcomes, mirroring the hardware counters the
// paper reads on Cascade Lake (Sec. IV-D, Fig. 7).
type RowStats struct {
	Hits    uint64
	Empties uint64
	Misses  uint64
}

// Total reports the number of classified accesses.
func (s RowStats) Total() uint64 { return s.Hits + s.Empties + s.Misses }

// Ratios reports the hit/empty/miss fractions; an empty window reports zeros.
func (s RowStats) Ratios() (hit, empty, miss float64) {
	t := s.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(s.Hits) / float64(t), float64(s.Empties) / float64(t), float64(s.Misses) / float64(t)
}

// Sub returns the difference s − prev.
func (s RowStats) Sub(prev RowStats) RowStats {
	return RowStats{Hits: s.Hits - prev.Hits, Empties: s.Empties - prev.Empties, Misses: s.Misses - prev.Misses}
}

func (s *RowStats) add(o rowOutcome) {
	switch o {
	case rowHit:
		s.Hits++
	case rowEmpty:
		s.Empties++
	default:
		s.Misses++
	}
}

type rowOutcome uint8

const (
	rowHit rowOutcome = iota
	rowEmpty
	rowMiss
)

type bank struct {
	openRow    int64    // -1 when closed
	actAt      sim.Time // time of the last ACT
	casReadyAt sim.Time // earliest next CAS issue
	preReadyAt sim.Time // earliest precharge
	actReadyAt sim.Time // earliest next ACT (set when a precharge is committed)
	// availUntil is the last instant the open row is still usable: the
	// earlier of the idle-close deadline and the instant before the first
	// refresh window start after the end of the bank's last data burst.
	// Both are functions of that instant alone, so they are computed once
	// when the bank is touched (touchBank) instead of on every scheduler
	// query — the row-availability test the decide scan runs per candidate
	// bank collapses to one comparison.
	availUntil sim.Time
}

// actWindow holds a rank's last (up to four) ACT times, oldest first.
type actWindow struct {
	at [4]sim.Time
	n  int
}

// Queue directions. Reads and writes wait in separate queues (the drain
// watermarks pick between them), so every per-bank structure exists once
// per direction.
const (
	dirRead = iota
	dirWrite
	dirCount
)

// chanReq is one queued transaction, resident in the channel's slot store.
// Slots are reused through a free list; a slot is allocated on enqueue and
// freed the moment its request issues. Two lists thread it: its direction's
// arrival queue (older/newer) and its bank FIFO (prev/next).
type chanReq struct {
	req          *mem.Request
	seq          uint64 // arrival order in its queue; the FR-FCFS age tiebreak
	row          int64
	bi           int32 // bank index: rank*Banks+bank
	rank         int32
	older, newer int32 // arrival-queue links (-1 = none)
	prev         int32 // per-bank FIFO links (-1 = none)
	next         int32 // doubles as the free-list link
}

// reqQueue is one direction's pending requests in arrival order, a doubly
// linked list threaded through the slot store. Any entry leaves in O(1).
//
// seq numbers the queue's arrivals and never goes back, so it names one
// request for the life of the channel. edge is the slot of the
// FRFCFSWindow-th entry — the last one a row hit may be picked from — or −1
// while fewer are queued (every entry is then inside the window).
type reqQueue struct {
	head, tail int32 // oldest and newest entry (-1 = empty)
	n          int
	arrivals   uint64 // seq of the next arrival
	edge       int32
}

// bankList is the FIFO of pending requests of one (bank, direction),
// threaded through the slot store, plus the incremental row-match state:
// match is the oldest pending request whose row equals the bank's open row
// (-1 when none), mirrored as one bit per bank in the channel's match
// bitmap. The bitmap is maintained on enqueue and issue: activates rescan
// the bank, hits advance to the next match. Rows closed by refresh or the
// idle timer are handled by the separate availability mask — a match bit
// may persist on a closed bank; the pick scan intersects the two words.
type bankList struct {
	head, tail int32
	match      int32
	matchSeq   uint64 // slots[match].seq, mirrored so the pick scan stays on this contiguous array
	openRow    int64  // banks[bi].openRow, mirrored so enqueue/detach stay on this contiguous array
}

// channel is one memory channel: its banks, its request queues and its
// scheduler state. Channels are driven by decide events: at most one pending
// decide event exists per channel, scheduled shortly before the data bus
// frees so the scheduler can still reorder late-arriving row hits.
type channel struct {
	eng *sim.Engine
	cfg *Config
	t   *Timing

	banks     []bank      // ranks × banks
	actHist   []actWindow // per rank: last 4 ACT times (tFAW window)
	lastAct   []sim.Time  // per rank: last ACT (tRRD)
	refOffset []sim.Time  // per rank: first refresh window start
	refNext   []sim.Time  // per rank: refWindowStart cursor

	busFreeAt   sim.Time
	lastIsW     bool
	haveDir     bool
	lastCASBank int32 // rank*banks+bank of the last CAS, -1 initially

	slots    []chanReq
	freeHead int32

	queues [dirCount]reqQueue

	bq        [dirCount][]bankList
	matchBits [dirCount][]uint64

	// availMask mirrors rowAvail over banks: bit set ⇒ the bank's open row
	// is usable at any t ≤ availSweepAt. Bits are set when a bank is
	// touched; expiry (idle-close, refresh) is swept lazily the first time
	// a decide runs past the watermark, so the pick scan intersects two
	// words instead of probing per-bank state per candidate.
	availMask    []uint64
	availSweepAt sim.Time

	lookahead sim.Time // RP+RCD+CL, the decide lead time before the bus frees

	draining   bool
	drainCount int // writes served in the current drain episode

	readHeadSeq    uint64 // seq of the read head readHeadBypass counts for
	readHeadBypass int    // times that head was bypassed by row hits

	decidePending bool
	decideAt      sim.Time
	decideFn      func(sim.Time) // stored once: kick schedules it without a fresh closure

	// tag is the channel's entity tag (global channel index + 1): every
	// event the channel schedules — decides and completions — carries it,
	// so equal-instant ties against other channels and against untagged
	// events resolve by tag. The release CSVs were generated in that
	// order, so it is part of every result.
	tag int32

	rowStats RowStats
}

// init is the channel's one constructor, run on a new channel and again on a
// used one (System.Reset). It assigns a whole fresh channel value, so a field
// added later starts from zero either way, and carries over only storage: the
// slot store and per-bank tables, emptied and cleared of stale request
// pointers. Their capacity is invisible to the scheduler, so a reset
// channel behaves exactly as a new one.
func (c *channel) init(eng *sim.Engine, cfg *Config, chIdx int) {
	old := *c
	nbanks := cfg.Ranks * cfg.Banks
	words := (nbanks + 63) / 64
	clear(old.slots)
	*c = channel{
		eng:         eng,
		cfg:         cfg,
		t:           &cfg.Timing,
		banks:       zeroed(old.banks, nbanks),
		actHist:     zeroed(old.actHist, cfg.Ranks),
		lastAct:     zeroed(old.lastAct, cfg.Ranks),
		refOffset:   zeroed(old.refOffset, cfg.Ranks),
		refNext:     zeroed(old.refNext, cfg.Ranks),
		lastCASBank: -1,
		slots:       old.slots[:0],
		freeHead:    -1,
		availMask:   zeroed(old.availMask, words),
		lookahead:   cfg.Timing.RP + cfg.Timing.RCD + cfg.Timing.CL,
		decideFn:    old.decideFn,
		tag:         int32(chIdx) + 1,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	for dir := 0; dir < dirCount; dir++ {
		c.queues[dir] = reqQueue{head: -1, tail: -1, edge: -1}
		c.bq[dir] = zeroed(old.bq[dir], nbanks)
		for b := range c.bq[dir] {
			c.bq[dir][b] = bankList{head: -1, tail: -1, match: -1, openRow: -1}
		}
		c.matchBits[dir] = zeroed(old.matchBits[dir], words)
	}
	if c.decideFn == nil { // captures only c, so it outlives any one simulation
		c.decideFn = func(sim.Time) {
			c.decidePending = false
			c.decideLoop()
		}
	}
	for r := 0; r < cfg.Ranks; r++ {
		// No ACT has happened yet: place the "previous" one far enough in
		// the past that tRRD never constrains the first activate.
		c.lastAct[r] = -(cfg.Timing.FAW + cfg.Timing.RRD)
		// Stagger refresh across ranks and channels so refresh storms do
		// not synchronize system-wide.
		c.refOffset[r] = cfg.Timing.REFI * sim.Time(chIdx*cfg.Ranks+r+1) / sim.Time(cfg.Channels*cfg.Ranks+1)
		c.refNext[r] = c.refOffset[r]
	}
}

// zeroed returns n zero elements, in s's backing array when it holds them.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Refresh is modelled analytically rather than with perpetual events:
// rank r is blocked during [refOffset+k·REFI, refOffset+k·REFI+RFC) for
// every k ≥ 0, and each window closes all rows in the rank. Commands that
// would land inside a window slide to its end.

// refreshAdjust pushes t out of any refresh window of the rank.
func (c *channel) refreshAdjust(rank int32, t sim.Time) sim.Time {
	if c.t.REFI <= 0 {
		return t
	}
	off := c.refOffset[rank]
	if t < off {
		return t
	}
	start := c.refWindowStart(rank, t)
	if t < start+c.t.RFC {
		return start + c.t.RFC
	}
	return t
}

// refWindowStart reports the latest refresh window start ≤ t for the rank
// (callers guarantee REFI > 0 and t ≥ refOffset). A per-rank cursor caches
// the last window found: command times trail the bus time closely, so the
// cursor moves at most a step or two per query, replacing the division of
// the closed form; a long idle gap falls back to the division.
func (c *channel) refWindowStart(rank int32, t sim.Time) sim.Time {
	refi := c.t.REFI
	start := c.refNext[rank]
	if d := t - start; d < -4*refi || d > 4*refi {
		off := c.refOffset[rank]
		start = off + (t-off)/refi*refi
		c.refNext[rank] = start
		return start
	}
	for start > t {
		start -= refi
	}
	for t-start >= refi {
		start += refi
	}
	c.refNext[rank] = start
	return start
}

// Slot store.

func (c *channel) allocSlot() int32 {
	if c.freeHead >= 0 {
		idx := c.freeHead
		c.freeHead = c.slots[idx].next
		return idx
	}
	c.slots = append(c.slots, chanReq{})
	return int32(len(c.slots) - 1)
}

func (c *channel) freeSlot(idx int32) {
	s := &c.slots[idx]
	s.req = nil
	s.next = c.freeHead
	c.freeHead = idx
}

func (c *channel) enqueue(req *mem.Request, bi, rank int32, row int64) {
	idx := c.allocSlot()
	s := &c.slots[idx]
	s.req = req
	s.row = row
	s.rank = rank
	s.bi = bi
	dir := dirRead
	if req.Op == mem.Write {
		// Writes are posted: the core never waits on them. Done still
		// fires when the write drains to the device, so that write-buffer
		// slots upstream provide back-pressure against unbounded queues.
		dir = dirWrite
	}
	q := &c.queues[dir]
	s.seq = q.arrivals
	q.arrivals++
	s.older, s.newer = q.tail, -1
	if q.tail >= 0 {
		c.slots[q.tail].newer = idx
	} else {
		q.head = idx
	}
	q.tail = idx
	if q.n++; q.n == c.cfg.FRFCFSWindow {
		q.edge = idx
	}
	c.bankAppend(dir, idx)
	c.kick()
}

// bankAppend links the slot at the tail of its bank FIFO and claims the
// match slot when the bank has none and the row matches the open row.
func (c *channel) bankAppend(dir int, idx int32) {
	s := &c.slots[idx]
	bl := &c.bq[dir][s.bi]
	s.prev, s.next = bl.tail, -1
	if bl.tail >= 0 {
		c.slots[bl.tail].next = idx
	} else {
		bl.head = idx
	}
	bl.tail = idx
	if bl.match < 0 && bl.openRow == s.row {
		c.setMatch(dir, s.bi, idx, s.seq)
	}
}

// bankDetach unlinks the slot from its bank FIFO. When the slot was the
// match, the match advances to the next pending request of the (still
// current) open row — correct for row hits; activates rescan afterwards.
func (c *channel) bankDetach(dir int, idx int32) {
	s := &c.slots[idx]
	bl := &c.bq[dir][s.bi]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		bl.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		bl.tail = s.prev
	}
	if bl.match == idx {
		row := bl.openRow
		m := int32(-1)
		var mseq uint64
		for j := s.next; j >= 0; j = c.slots[j].next {
			if c.slots[j].row == row {
				m, mseq = j, c.slots[j].seq
				break
			}
		}
		c.setMatch(dir, s.bi, m, mseq)
	}
}

// rescanBank recomputes both directions' match state against the bank's
// (new) open row — called after an activate changes it.
func (c *channel) rescanBank(bi int32) {
	row := c.banks[bi].openRow
	for dir := 0; dir < dirCount; dir++ {
		c.bq[dir][bi].openRow = row
		m := int32(-1)
		var mseq uint64
		for j := c.bq[dir][bi].head; j >= 0; j = c.slots[j].next {
			if c.slots[j].row == row {
				m, mseq = j, c.slots[j].seq
				break
			}
		}
		c.setMatch(dir, bi, m, mseq)
	}
}

func (c *channel) setMatch(dir int, bi, idx int32, seq uint64) {
	bl := &c.bq[dir][bi]
	bl.match, bl.matchSeq = idx, seq
	bit := uint64(1) << (uint(bi) & 63)
	if idx >= 0 {
		c.matchBits[dir][bi>>6] |= bit
	} else {
		c.matchBits[dir][bi>>6] &^= bit
	}
}

// kick (re)schedules the decide event. The event is placed a lookahead
// before the bus frees, so the scheduler commits each burst just in time.
func (c *channel) kick() {
	if c.queued() == 0 {
		return
	}
	at := c.decideTime()
	if c.decidePending && c.decideAt <= at {
		return
	}
	c.scheduleDecide(at)
}

func (c *channel) decideTime() sim.Time {
	at := c.busFreeAt - c.lookahead
	if now := c.eng.Now(); at < now {
		at = now
	}
	return at
}

// decideLoop is the decide event: it commits one burst and, while requests
// remain, schedules the next decide a lookahead before the bus frees and
// yields. Everything due in between — other channels, cores, this channel's
// own completions — fires in the engine's order before the next decision.
func (c *channel) decideLoop() {
	if !c.decideOnce() || c.queued() == 0 {
		return
	}
	c.scheduleDecide(c.decideTime())
}

// scheduleDecide queues the decide event as this channel's entity, so
// equal-instant ties against other channels break by tag.
func (c *channel) scheduleDecide(at sim.Time) {
	c.decidePending = true
	c.decideAt = at
	c.eng.ScheduleKeyed(at, c.eng.Now(), c.tag, c.decideFn)
}

// decideOnce picks the next request (FR-FCFS within the active direction)
// and commits its data burst on the bus. It reports whether a burst was
// committed.
func (c *channel) decideOnce() bool {
	writes := c.pickDirection()
	dir := dirRead
	if writes {
		dir = dirWrite
	}
	if c.queues[dir].n == 0 {
		c.kick()
		return false
	}
	idx := c.pick(dir)
	c.leaveQueue(dir, idx)
	c.bankDetach(dir, idx)
	c.issue(idx, writes)
	c.freeSlot(idx)
	return true
}

// pickDirection applies write-drain watermarks: reads have priority; a
// write drain starts when the write queue reaches WriteHi (or reads run
// dry) and continues down to WriteLo. A drain episode is additionally
// bounded: under a sustained write flood, posted writebacks refill the
// queue as fast as it drains and the low watermark is never reached, which
// would starve reads forever. Real controllers bound write bursts for the
// same reason.
func (c *channel) pickDirection() bool {
	if c.draining {
		switch {
		case c.queues[dirWrite].n <= c.cfg.WriteLo || c.queues[dirWrite].n == 0:
			c.draining = false
		case c.drainCount >= 2*c.cfg.WriteHi && c.queues[dirRead].n > 0:
			// Yield to the waiting reads immediately; the drain (and its
			// episode counter) restarts on the next decision.
			c.draining = false
			return false
		default:
			c.drainCount++
			return true
		}
	}
	if c.queues[dirRead].n == 0 {
		return c.queues[dirWrite].n > 0
	}
	if c.queues[dirWrite].n >= c.cfg.WriteHi {
		c.draining = true
		c.drainCount = 1
		return true
	}
	return false
}

// pick returns the slot to issue next: the oldest row-hit in a different
// bank than the previous CAS if one exists (bank-group interleaving hides
// tCCD_L, which is how real controllers keep the bus saturated), otherwise
// the oldest row-hit, otherwise the oldest request.
//
// Unfairness is bounded by a bypass count, not by age: the read-queue head
// may be bypassed by row hits at most BypassCap times before it is served
// unconditionally. A count bound is self-stabilizing — it costs at most one
// row-miss service per BypassCap hits regardless of load, unlike time-based
// aging, which under saturation escalates everything and collapses row-hit
// batching (and with it, bandwidth).
//
// The scan is incremental (bankList): the pick is the oldest available
// match. The FRFCFSWindow bound holds exactly: the oldest hit, and every hit
// inside the window, is some bank's match, and a candidate's membership is
// one comparison against the queue's window edge (inWindow).
func (c *channel) pick(dir int) int32 {
	q := &c.queues[dir]
	head := q.head
	now := c.eng.Now()
	isRead := dir == dirRead
	if isRead {
		if hs := c.slots[head].seq; hs != c.readHeadSeq {
			c.readHeadSeq = hs
			c.readHeadBypass = 0
		}
		if c.cfg.BypassCap > 0 && c.readHeadBypass >= c.cfg.BypassCap {
			return head
		}
	}
	if q.n == 1 {
		// Only the head is eligible; the scan could pick nothing else (a
		// hit-pick of the head reports no bypass either way). This is the
		// common case across the low-pressure half of every sweep.
		return head
	}
	if now > c.availSweepAt {
		c.sweepAvail(now)
	}
	var best, lastCand int32 = -1, -1
	var bestSeq uint64
	for w, word := range c.matchBits[dir] {
		word &= c.availMask[w] // hits only count on banks whose row is still usable
		for word != 0 {
			bi := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			bl := &c.bq[dir][bi]
			if bi == c.lastCASBank {
				lastCand = bl.match
				continue
			}
			if best < 0 || bl.matchSeq < bestSeq {
				best, bestSeq = bl.match, bl.matchSeq
			}
		}
	}
	choice := head
	hit := false
	switch {
	// If the oldest different-bank hit is beyond the window, every
	// different-bank hit is (younger hits sit even deeper), and the
	// same-bank candidate decides; likewise from there to the head.
	case best >= 0 && c.inWindow(dir, best):
		choice, hit = best, true
	case lastCand >= 0 && c.inWindow(dir, lastCand):
		choice, hit = lastCand, true
	}
	if isRead && hit && choice != head {
		c.readHeadBypass++
	}
	return choice
}

// inWindow reports whether the queued slot sits among the first
// FRFCFSWindow entries of its queue: whether it arrived no later than the
// window edge, or the queue holds fewer entries than the window.
func (c *channel) inWindow(dir int, idx int32) bool {
	e := c.queues[dir].edge
	return e < 0 || c.slots[idx].seq <= c.slots[e].seq
}

// leaveQueue unlinks the slot from its direction's queue. A slot at or
// before the window edge moves the edge one entry toward the tail (to −1
// when the queue drops below the window); one behind it changes nothing.
func (c *channel) leaveQueue(dir int, idx int32) {
	q := &c.queues[dir]
	s := &c.slots[idx]
	if q.edge >= 0 && s.seq <= c.slots[q.edge].seq {
		q.edge = c.slots[q.edge].newer
	}
	if s.older >= 0 {
		c.slots[s.older].newer = s.newer
	} else {
		q.head = s.newer
	}
	if s.newer >= 0 {
		c.slots[s.newer].older = s.older
	} else {
		q.tail = s.older
	}
	q.n--
}

// rowAvail reports whether the bank's open row is still usable at t: it
// must not have auto-precharged after the idle-close timeout (adaptive
// page policy) and must not have been closed by an intervening refresh.
// Both deadlines were folded into availUntil when the bank was last
// touched.
func (c *channel) rowAvail(bi int32, t sim.Time) bool {
	bk := &c.banks[bi]
	return bk.openRow >= 0 && t <= bk.availUntil
}

// sweepAvail retires expired banks from the availability mask and advances
// the watermark to the earliest remaining expiry. It runs only when a
// decide crosses the watermark — under load, banks are re-touched long
// before they expire, so sweeps are rare.
func (c *channel) sweepAvail(now sim.Time) {
	const never = sim.Time(1) << 62
	min := never
	for w, word := range c.availMask {
		for rest := word; rest != 0; {
			bi := int32(w<<6 + bits.TrailingZeros64(rest))
			rest &= rest - 1
			until := c.banks[bi].availUntil
			if until < now {
				word &^= 1 << (uint(bi) & 63)
			} else if until < min {
				min = until
			}
		}
		c.availMask[w] = word
	}
	c.availSweepAt = min
}

// touchBank stamps the end of a data burst on the bank and recomputes its
// availability deadline: the idle-close timeout, capped by the instant
// before the first refresh window start after the touch (that refresh
// closes the row; commands at the window start itself already see it
// closed).
func (c *channel) touchBank(bi int32, rank int32, at sim.Time) {
	bk := &c.banks[bi]
	const never = sim.Time(1) << 62
	until := never
	if c.cfg.IdleClose > 0 {
		until = at + c.cfg.IdleClose
	}
	if c.t.REFI > 0 {
		next := c.refOffset[rank]
		if at >= next {
			next = c.refWindowStart(rank, at) + c.t.REFI
		}
		if next-1 < until {
			until = next - 1
		}
	}
	bk.availUntil = until
	c.availMask[bi>>6] |= 1 << (uint(bi) & 63)
	if until < c.availSweepAt {
		c.availSweepAt = until
	}
}

// issue commits one transaction: resolves the row outcome, computes the
// earliest legal data burst, updates bank/rank/bus state and schedules the
// completion callback. The slot has already left its queue and bank list;
// the caller frees it.
func (c *channel) issue(idx int32, isWrite bool) {
	s := &c.slots[idx]
	now := c.eng.Now()
	rank := s.rank
	bi := s.bi
	bk := &c.banks[bi]

	avail := c.rowAvail(bi, now)
	var outcome rowOutcome
	switch {
	case avail && bk.openRow == s.row:
		outcome = rowHit
	case !avail:
		outcome = rowEmpty
	default:
		outcome = rowMiss
	}

	casIssue := max(now, bk.casReadyAt)
	var act sim.Time
	switch outcome {
	case rowEmpty:
		act = max(now, bk.actReadyAt, c.rankActConstraint(rank))
		act = c.refreshAdjust(rank, act)
		casIssue = max(casIssue, act+c.t.RCD)
	case rowMiss:
		pre := max(now, bk.preReadyAt)
		act = max(pre+c.t.RP, c.rankActConstraint(rank))
		act = c.refreshAdjust(rank, act)
		casIssue = max(casIssue, act+c.t.RCD)
	default:
		casIssue = c.refreshAdjust(rank, casIssue)
	}

	// Bus constraint with direction-turnaround penalty.
	busReady := c.busFreeAt
	if c.haveDir && c.lastIsW != isWrite {
		if isWrite {
			busReady += c.t.RTW
		} else {
			busReady += c.t.WTR
		}
	}
	dataStart := max(casIssue+c.t.CL, busReady, now)
	dataEnd := dataStart + c.t.Burst
	casIssue = dataStart - c.t.CL

	// Commit device state.
	if outcome != rowHit {
		c.recordActivate(rank, act)
		bk.actAt = act
		bk.openRow = s.row
		c.rescanBank(bi)
	}
	bk.casReadyAt = casIssue + c.t.CCD
	if isWrite {
		bk.preReadyAt = max(bk.actAt+c.t.RAS, dataEnd+c.t.WR)
	} else {
		bk.preReadyAt = max(bk.actAt+c.t.RAS, casIssue+c.t.RTP)
	}
	bk.actReadyAt = bk.preReadyAt + c.t.RP
	c.touchBank(bi, rank, dataEnd)
	c.busFreeAt = dataEnd
	c.lastIsW = isWrite
	c.haveDir = true
	c.lastCASBank = bi

	c.rowStats.add(outcome)
	if isWrite {
		// Posted write: completion (= write-queue acceptance upstream,
		// drain here) releases the pooled record at the burst end.
		s.req.CompleteAtTagged(c.eng, dataEnd, c.tag)
		return
	}
	s.req.CompleteAtTagged(c.eng, dataEnd+c.cfg.CtrlLatency, c.tag)
}

// rankActConstraint reports the earliest time a new ACT may issue in the
// rank, honouring tRRD and tFAW. Refresh windows are applied separately via
// refreshAdjust.
func (c *channel) rankActConstraint(rank int32) sim.Time {
	earliest := c.lastAct[rank] + c.t.RRD
	if h := &c.actHist[rank]; h.n == 4 {
		if t := h.at[0] + c.t.FAW; t > earliest {
			earliest = t
		}
	}
	return earliest
}

func (c *channel) recordActivate(rank int32, at sim.Time) {
	c.lastAct[rank] = at
	h := &c.actHist[rank]
	if h.n == 4 {
		copy(h.at[:], h.at[1:])
		h.at[3] = at
	} else {
		h.at[h.n] = at
		h.n++
	}
}

func (c *channel) queued() int { return c.queues[dirRead].n + c.queues[dirWrite].n }
