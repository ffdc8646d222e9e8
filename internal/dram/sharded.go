package dram

import (
	"fmt"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Sharded is the multi-engine form of System: channels live on the non-home
// shards of a sim.ShardGroup and advance concurrently inside the group's
// conservative windows, while the issuing side (cores, cache, request pool)
// stays on the home shard. It implements mem.TimedBackend only — every
// access must carry the cross-shard hop as its delivery delay, because that
// hop is the home shard's lookahead; a zero-latency Access has no
// conservative window to ride and panics.
//
// Ownership: requests are delivered to a channel's shard via their prebuilt
// deliver closures and completed back on the home shard via their prebuilt
// fire closures (CompleteVia), so Done callbacks and pool releases run only
// on the home goroutine — the single-goroutine pool contract is preserved
// under sharding by construction, not by locking.
//
// The channel shards declare the device burst time as their lookahead:
// a completion committed by a decide at time t ends its data burst no
// earlier than t+Burst (reads add CtrlLatency on top), so that is the
// minimum flight time of everything a channel shard ever sends.
type Sharded struct {
	group  *sim.ShardGroup
	home   int
	cfg    Config
	mapper Mapper
	chans  []*channel
	shard  []int // shard index per channel

	xmit []func(at sim.Time, tag int32, fn func(sim.Time)) // per channel: home → owning shard
	dest []shardEntry                                      // per channel: delivery target
}

// shardEntry is the per-channel delivery target: Access runs on the owning
// shard's goroutine at the delivery time and enqueues into the channel.
type shardEntry struct {
	s  *Sharded
	ch int
}

func (e *shardEntry) Access(req *mem.Request) {
	s := e.s
	_, bi, rank, row := s.mapper.mapReq(req.Addr)
	s.chans[e.ch].enqueue(req, bi, rank, row)
}

// NewSharded builds a sharded memory system on the group, with channels
// assigned round-robin over every shard except home. The group must have at
// least two shards. Channel identity (refresh stagger, mapping) is exactly
// that of New, so a sharded and an unsharded system given the same request
// stream produce identical command sequences and completion times.
func NewSharded(group *sim.ShardGroup, cfg Config, home int) *Sharded {
	n := group.Shards()
	if n < 2 {
		panic(fmt.Sprintf("dram: sharded system needs ≥ 2 shards, got %d", n))
	}
	cfgd := cfg.withDefaults()
	assign := make([]int, cfgd.Channels)
	k := 0
	for i := range assign {
		if k == home {
			k = (k + 1) % n
		}
		assign[i] = k
		k = (k + 1) % n
	}
	return NewShardedAssigned(group, cfg, home, assign)
}

// NewShardedAssigned builds a sharded system with an explicit channel→shard
// assignment (len(assign) == Channels; no entry may name the home shard).
// The assignment changes only which goroutine advances each channel — never
// the simulated result — which is what the randomized-assignment stress
// test asserts.
func NewShardedAssigned(group *sim.ShardGroup, cfg Config, home int, assign []int) *Sharded {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(assign) != cfg.Channels {
		panic(fmt.Sprintf("dram: %d shard assignments for %d channels", len(assign), cfg.Channels))
	}
	s := &Sharded{
		group:  group,
		home:   home,
		cfg:    cfg,
		mapper: NewMapper(&cfg),
		chans:  make([]*channel, cfg.Channels),
		shard:  make([]int, cfg.Channels),
		xmit:   make([]func(at sim.Time, tag int32, fn func(sim.Time)), cfg.Channels),
		dest:   make([]shardEntry, cfg.Channels),
	}
	// One home-bound transmit closure per shard, shared by the shard's
	// channels; the per-channel completion hook binds the channel's entity
	// tag so completions sort on the home engine exactly as
	// CompleteAtTagged would have placed them unsharded.
	homebound := make([]func(at sim.Time, tag int32, fn func(sim.Time)), group.Shards())
	outward := make([]func(at sim.Time, tag int32, fn func(sim.Time)), group.Shards())
	for i := range s.chans {
		sh := assign[i]
		if sh == home || sh < 0 || sh >= group.Shards() {
			panic(fmt.Sprintf("dram: channel %d assigned to invalid shard %d (home %d, %d shards)",
				i, sh, home, group.Shards()))
		}
		s.shard[i] = sh
		if homebound[sh] == nil {
			shard := sh
			homebound[sh] = func(at sim.Time, tag int32, fn func(sim.Time)) { group.Send(shard, home, at, tag, fn) }
			outward[sh] = func(at sim.Time, tag int32, fn func(sim.Time)) { group.Send(home, shard, at, tag, fn) }
		}
		hw := homebound[sh]
		c := &channel{}
		s.chans[i] = c
		s.xmit[i] = outward[sh]
		s.dest[i] = shardEntry{s: s, ch: i}
		s.initChannel(i, func(req *mem.Request, at sim.Time) { req.CompleteVia(hw, at, c.tag) })
	}
	return s
}

// initChannel runs channel i's constructor and declares its shard's lookahead.
func (s *Sharded) initChannel(i int, complete func(req *mem.Request, at sim.Time)) {
	sh := s.shard[i]
	s.chans[i].init(s.group.Engine(sh), &s.cfg, i, complete)
	// The shard→home lookahead is the minimum flight time of the shard's
	// sends: every completion lands at least one data burst after the
	// decide that committed it. Multiple channels on one shard share the
	// same device timing, so the assignment is idempotent. Channel shards
	// never talk to each other — those pairs stay at InfLookahead and place
	// no bound on each other's windows.
	s.group.SetLookahead(sh, s.home, s.cfg.Timing.Burst)
}

// Reset is System.Reset for the sharded form, on a quiescent group that was
// itself Reset; the lookahead is declared again in case a backend built on
// the group since replaced it.
func (s *Sharded) Reset() {
	for i, c := range s.chans {
		s.initChannel(i, c.complete)
	}
}

// Config reports the system configuration.
func (s *Sharded) Config() Config { return s.cfg }

// PeakBandwidthGBs reports the theoretical maximum bandwidth.
func (s *Sharded) PeakBandwidthGBs() float64 { return s.cfg.PeakBandwidthGBs() }

// AccessAt submits one transaction for delivery at absolute time at,
// transferring ownership. It must be called from the home shard with
// at − now at least the home shard's declared lookahead (the cache's
// outbound on-chip hop in the standard topology).
func (s *Sharded) AccessAt(req *mem.Request, at sim.Time) {
	ch, _, _, _ := s.mapper.mapReq(req.Addr)
	req.SendVia(s.xmit[ch], &s.dest[ch], at, 0)
}

// Access panics: a same-instant hand-off has no conservative window to
// cross shards in. Issuers must carry a positive hop (AccessAt), which the
// cache hierarchy does whenever OnChipLatency > 0.
func (s *Sharded) Access(*mem.Request) {
	panic("dram: sharded system requires a timed hand-off (AccessAt with a positive hop)")
}

// The aggregate statistics below may only be read while the group is
// quiescent (between RunUntil calls), when the barrier has ordered every
// shard's memory against the caller.

// Counters reports accumulated system-wide traffic counters.
func (s *Sharded) Counters() mem.Counters {
	var total mem.Counters
	for _, c := range s.chans {
		total.Merge(c.counters)
	}
	return total
}

// RowStats reports accumulated row-buffer hit/empty/miss statistics.
func (s *Sharded) RowStats() RowStats {
	var total RowStats
	for _, c := range s.chans {
		total.Hits += c.rowStats.Hits
		total.Empties += c.rowStats.Empties
		total.Misses += c.rowStats.Misses
	}
	return total
}

// Queued reports the number of requests currently waiting in controller
// queues.
func (s *Sharded) Queued() int {
	n := 0
	for _, c := range s.chans {
		n += c.queued()
	}
	return n
}

// ObservedReadLatency reports the mean controller-level read latency.
func (s *Sharded) ObservedReadLatency() (sim.Time, uint64) {
	var sum sim.Time
	var n uint64
	for _, c := range s.chans {
		sum += c.readLatSum
		n += c.readLatN
	}
	if n == 0 {
		return 0, 0
	}
	return sum / sim.Time(n), n
}

func (s *Sharded) String() string {
	return fmt.Sprintf("%s ×%d channels sharded over %d engines (peak %.1f GB/s)",
		s.cfg.Name, s.cfg.Channels, s.group.Shards()-1, s.PeakBandwidthGBs())
}

var _ mem.TimedBackend = (*Sharded)(nil)
var _ mem.LatencyObserver = (*Sharded)(nil)
