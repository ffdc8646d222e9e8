// Package cache models the on-chip side of the memory path: the translation
// of core loads and stores into memory-controller traffic.
//
// It is intentionally not a tag-accurate cache simulator. The Mess benchmark
// defeats caches by construction (arrays larger than the LLC, random
// pointer-chase), so what matters for bandwidth–latency characterization is
// the *traffic translation*:
//
//   - write-allocate policy: a store miss costs one memory read (the RFO
//     fill) plus one eventual memory write (the dirty writeback) — the 2×
//     store amplification at the heart of the paper's STREAM-vs-Mess
//     analysis (Sec. III);
//   - write-through/no-allocate behaviour on platforms where STREAM matches
//     the Mess counters (Graviton 3, H100);
//   - non-temporal stores that write straight to memory (the >50%-write
//     Mess kernels);
//   - MSHR limits bounding per-core memory parallelism;
//   - a finite write buffer providing back-pressure on posted writebacks;
//   - the on-chip (cache hierarchy + NoC) round-trip component of the
//     load-to-use latency;
//   - optionally, the OpenPiton coherency bug from Sec. IV-C: every
//     eviction written back, clean or not.
package cache

import (
	"fmt"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// WritePolicy selects how stores translate into memory traffic.
type WritePolicy uint8

const (
	// WriteAllocate: store miss → RFO read now + writeback later.
	WriteAllocate WritePolicy = iota
	// WriteThrough: store miss → one memory write, no fill. (Shorthand for
	// the no-write-allocate behaviour the paper infers on Graviton 3/H100.)
	WriteThrough
)

func (p WritePolicy) String() string {
	if p == WriteAllocate {
		return "write-allocate"
	}
	return "write-through"
}

// Config parameterizes the hierarchy.
type Config struct {
	Policy        WritePolicy
	OnChipLatency sim.Time // round-trip core↔controller component of load-to-use
	MSHRs         int      // per-core outstanding demand misses (loads + RFOs)
	WriteBufs     int      // per-core outstanding posted writebacks
	LLCHitRate    float64  // probability an access is served on-chip
	LLCHitLatency sim.Time // latency of on-chip hits
	// EvictCleanAsDirty reproduces the OpenPiton coherency bug (Sec. IV-C):
	// the LLC writes back every evicted line, clean or dirty, so load misses
	// also generate write traffic.
	EvictCleanAsDirty bool
}

// llcSeed seeds the LLC hit-rate draw of every hierarchy.
const llcSeed = 0x9e3779b97f4a7c15

// writebackLag is the eviction distance in bytes for writeback addresses.
const writebackLag = 4 << 20

func (c *Config) withDefaults() Config {
	out := *c
	if out.MSHRs == 0 {
		out.MSHRs = 10
	}
	if out.WriteBufs == 0 {
		out.WriteBufs = 16
	}
	return out
}

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
	switch {
	case c.MSHRs < 0 || c.WriteBufs < 0:
		return fmt.Errorf("cache: negative MSHR/write-buffer count")
	case c.LLCHitRate < 0 || c.LLCHitRate > 1:
		return fmt.Errorf("cache: LLC hit rate %v outside [0,1]", c.LLCHitRate)
	case c.OnChipLatency < 0:
		return fmt.Errorf("cache: negative on-chip latency")
	}
	return nil
}

// Hierarchy is the shared on-chip model; create one per platform and one
// Port per core. It owns the engine's request pool: every transaction its
// ports issue downstream is a pooled record, released when the backend
// completes it.
type Hierarchy struct {
	eng     *sim.Engine
	cfg     Config
	backend mem.Backend
	timed   mem.TimedBackend // backend's AccessAt form; nil when untimed
	pool    *mem.RequestPool
	rng     uint64
}

// New builds a hierarchy over the given memory backend.
func New(eng *sim.Engine, cfg Config, backend mem.Backend) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(eng, cfg, backend)
	return h
}

// Reset is New run again in place: the hierarchy keeps nothing of its last
// simulation but the request pool's records, which are reclaimed (the engine
// they were in flight on must have been Reset or abandoned). Ports of the
// previous simulation must not be used again.
func (h *Hierarchy) Reset(eng *sim.Engine, cfg Config, backend mem.Backend) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	pool := h.pool
	if pool == nil {
		pool = mem.NewRequestPool()
	}
	pool.Reset()
	*h = Hierarchy{eng: eng, cfg: cfg, backend: backend, pool: pool, rng: llcSeed}
	h.timed, _ = mem.Timed(backend)
}

// Pool exposes the hierarchy's request pool (diagnostics and tests: a
// drained simulation must report Live() == 0).
func (h *Hierarchy) Pool() *mem.RequestPool { return h.pool }

// Port returns a per-core issue port. The port's downstream completion
// callbacks are bound once here, so sending a request captures nothing.
// Ports of different cores behave alike; coreID only names the caller's
// core.
func (h *Hierarchy) Port(coreID int) *Port {
	p := &Port{h: h}
	p.loadDoneFn = p.loadDone
	p.storeDoneFn = p.storeDone
	p.wbDoneFn = p.wbDone
	return p
}

func (h *Hierarchy) nextRand() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

func (h *Hierarchy) llcHit() bool {
	if h.cfg.LLCHitRate <= 0 {
		return false
	}
	return float64(h.nextRand()%(1<<24))/float64(1<<24) < h.cfg.LLCHitRate
}

// Port is a single core's interface to the memory hierarchy. Ports are not
// safe for concurrent use; each belongs to one core on one engine.
type Port struct {
	h          *Hierarchy
	inflight   int // demand misses holding MSHRs
	wbInflight int // posted writebacks holding write-buffer slots

	// Stored completion callbacks (bound at construction): the backend
	// invokes these with the pooled request, whose User slot carries the
	// core's own load-to-use callback.
	loadDoneFn  mem.DoneFunc
	storeDoneFn mem.DoneFunc
	wbDoneFn    mem.DoneFunc

	// OnFree, when set, is invoked every time an MSHR or write-buffer
	// slot is released. Issue engines that stall on FreeMSHR/FreeWB must
	// register here: a write-buffer slot can be freed by a writeback
	// draining deep in the memory system, with no in-flight completion
	// callback belonging to the stalled engine.
	OnFree func()

	// Stats.
	Loads, Stores, LLCHits uint64
}

func (p *Port) releaseMSHR() {
	p.inflight--
	if p.OnFree != nil {
		p.OnFree()
	}
}

func (p *Port) releaseWB() {
	p.wbInflight--
	if p.OnFree != nil {
		p.OnFree()
	}
}

// FreeMSHR reports whether a demand miss can issue now.
func (p *Port) FreeMSHR() bool { return p.inflight < p.h.cfg.MSHRs }

// FreeWB reports whether a posted write can issue now.
func (p *Port) FreeWB() bool { return p.wbInflight < p.h.cfg.WriteBufs }

// Load issues one load. For a miss, done fires at data arrival at the core
// (load-to-use) and Load reports onChip false. An LLC hit completes on
// chip: the port neither schedules nor invokes done — it reports
// (now+LLCHitLatency, true) and the core folds the completion into its own
// control flow (consume the timestamp inline, or schedule its stored
// callback at ackAt when it reads engine time). This keeps hits out of the
// port's scheduling entirely — the round-trip event the old port-side
// delivery cost per hit exists only if the core needs one.
// The caller must have checked FreeMSHR; Load panics otherwise, because a
// silent drop would corrupt bandwidth accounting.
func (p *Port) Load(addr uint64, done func(at sim.Time)) (ackAt sim.Time, onChip bool) {
	p.Loads++
	if p.h.llcHit() {
		p.LLCHits++
		return p.h.eng.Now() + p.h.cfg.LLCHitLatency, true
	}
	if !p.FreeMSHR() {
		panic("cache: Load issued with no free MSHR")
	}
	p.inflight++
	p.request(addr, mem.Read, p.loadDoneFn, done)
	if p.h.cfg.EvictCleanAsDirty {
		p.buggedWriteback(addr)
	}
	return 0, false
}

// loadDone is the backend completion of a demand load: free the MSHR, then
// deliver the core's callback (req.User) after the inbound hop.
func (p *Port) loadDone(at sim.Time, req *mem.Request) {
	user := req.User
	p.releaseMSHR()
	p.finish(at, user)
}

// Store issues one store under the configured write policy. done fires when
// the store owns the line (write-allocate miss); an LLC hit or a
// write-through acceptance completes on chip, reported as
// (now+LLCHitLatency, true) with done untouched, exactly as for Load.
func (p *Port) Store(addr uint64, done func(at sim.Time)) (ackAt sim.Time, onChip bool) {
	p.Stores++
	if p.h.llcHit() {
		p.LLCHits++
		return p.h.eng.Now() + p.h.cfg.LLCHitLatency, true
	}
	if p.h.cfg.Policy == WriteThrough {
		if !p.FreeWB() {
			panic("cache: Store issued with no free write buffer")
		}
		p.wbInflight++
		p.request(addr, mem.Write, p.wbDoneFn, nil)
		return p.h.eng.Now() + p.h.cfg.LLCHitLatency, true
	}
	// Write-allocate: RFO read now, dirty writeback at fill time.
	if !p.FreeMSHR() || !p.FreeWB() {
		panic("cache: Store issued with no free MSHR/write buffer")
	}
	p.inflight++
	p.wbInflight++
	p.request(addr, mem.Read, p.storeDoneFn, done)
	return 0, false
}

// storeDone is the backend completion of a write-allocate RFO fill: emit
// the paired writeback (the store address rides in req.Addr), free the
// MSHR, then deliver the core's callback.
func (p *Port) storeDone(at sim.Time, req *mem.Request) {
	addr, user := req.Addr, req.User
	p.writebackFor(addr)
	p.releaseMSHR()
	p.finish(at, user)
}

// wbDone is the backend completion of a posted write draining: free the
// write-buffer slot reserved at issue.
func (p *Port) wbDone(sim.Time, *mem.Request) { p.releaseWB() }

// StoreNT issues a non-temporal (streaming) store: one memory write, no
// RFO. The core-side acceptance is always on chip — reported like a hit,
// never scheduled or invoked by the port.
func (p *Port) StoreNT(addr uint64, done func(at sim.Time)) (ackAt sim.Time, onChip bool) {
	if !p.FreeWB() {
		panic("cache: StoreNT issued with no free write buffer")
	}
	p.wbInflight++
	p.request(addr, mem.Write, p.wbDoneFn, nil)
	return p.h.eng.Now() + p.h.cfg.LLCHitLatency, true
}

// writebackFor issues the posted writeback paired with a write-allocate
// store: the line evicted is modelled as writebackLag bytes behind the
// current address, preserving the sequential locality of eviction streams.
// The write-buffer slot reserved by Store is released when the write drains.
func (p *Port) writebackFor(addr uint64) {
	if addr < writebackLag {
		// Cold lines: nothing dirty to evict yet.
		p.releaseWB()
		return
	}
	p.request(addr-writebackLag, mem.Write, p.wbDoneFn, nil)
}

// buggedWriteback models the OpenPiton clean-eviction bug: the fill caused
// by a load evicts a line that is written back even though it is clean.
// Bug traffic deliberately bypasses the write-buffer limit — the broken
// protocol generates it regardless of buffer occupancy.
func (p *Port) buggedWriteback(addr uint64) {
	if addr < writebackLag {
		return
	}
	p.request(addr-writebackLag, mem.Write, nil, nil)
}

// request acquires a pooled transaction and sends it to the backend after
// the outbound on-chip delay (via the record's own timed hand-off — no
// per-request closure). The backend completion time is the controller-level
// completion; the inbound on-chip delay is added by finish for loads.
func (p *Port) request(addr uint64, op mem.Op, done mem.DoneFunc, user func(at sim.Time)) {
	req := p.h.pool.Get(addr, op, done)
	req.User = user
	outbound := p.h.cfg.OnChipLatency / 2
	if outbound == 0 {
		req.Issued = p.h.eng.Now()
		p.h.backend.Access(req)
		return
	}
	// A timed backend routes the hop itself, and a counting wrapper over
	// it counts the request now, at send (mem.TimedBackend).
	if p.h.timed != nil {
		p.h.timed.AccessAt(req, p.h.eng.Now()+outbound)
		return
	}
	req.SendAt(p.h.eng, p.h.backend, p.h.eng.Now()+outbound)
}

// finish delivers a memory completion to the core after the inbound on-chip
// delay (the other half of OnChipLatency).
func (p *Port) finish(memDone sim.Time, done func(at sim.Time)) {
	if done == nil {
		return
	}
	inbound := p.h.cfg.OnChipLatency - p.h.cfg.OnChipLatency/2
	at := memDone + inbound
	if inbound == 0 {
		done(at)
		return
	}
	p.h.eng.ScheduleKeyed(at, p.h.eng.Now(), 0, done)
}
