// Package mem defines the request, traffic-counter and backend types shared
// by every memory model in the repository. It is the seam between the CPU
// side (cores + cache hierarchy) and the memory side (detailed DRAM model,
// the behavioural model zoo, the CXL expander and the Mess analytical
// simulator).
//
// # The request lifecycle
//
// Requests are pooled, mirroring the simulation kernel's event pool: the
// per-transaction record is the dominant allocation on the simulated access
// path once the kernel itself is allocation-free, and the Mess methodology
// multiplies that cost across thousands of sweep points per curve family.
// The contract:
//
//   - the issuer acquires a record from a RequestPool (one pool per
//     simulation instance — pools, like engines, are single-goroutine) and
//     fills in address, op and completion callback;
//   - Access transfers ownership to the backend. From that point the issuer
//     must not retain the pointer past completion: the record is recycled
//     for an unrelated transaction;
//   - the backend completes the request exactly once — Complete(at) now, or
//     CompleteAt(eng, at) to schedule completion — which invokes Done and
//     then releases the record back to its pool automatically. Completing a
//     pooled record twice panics;
//   - wrapper backends (CountingBackend, trace.Capture) observe and forward;
//     they never complete. Protocol models that issue a secondary
//     device-side transaction (the CXL expander, the remote-socket
//     emulation) acquire the inner request from their own pool and link the
//     original via Parent, completing it from the inner request's Done.
//
// Done(at, req) is a stored callback, with per-request state in the record
// (see DoneFunc), and prebuilt per-record closures let CompleteAt and
// SendAt schedule without allocating: issue and complete are 0 allocs/op
// once the pool is warm (perfload's steady-state tests). A new issuer on a
// hot path acquires from a pool, as cache.Hierarchy does; a literal
// &Request{...} works everywhere, and Complete skips its release.
package mem

import (
	"fmt"

	"github.com/mess-sim/mess/internal/sim"
)

// LineSize is the cache-line / memory-transaction size in bytes. Every
// platform in the paper uses 64-byte lines.
const LineSize = 64

// Op distinguishes memory reads from memory writes at the controller
// boundary. Note that these are memory-traffic operations, not CPU
// instructions: with a write-allocate cache a store instruction becomes one
// Read (the RFO fill) plus one Write (the eventual writeback).
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// DoneFunc is a completion callback: the backend invokes it exactly once
// when the transaction completes, with the completion time and the request
// itself. Per-request context (Addr, Issued, Ctx, User, Parent) is read off
// the request, which is what lets one stored DoneFunc serve every request
// of a component. The request is released back to its pool when the
// callback returns: the callback may read the record but must not retain
// the pointer.
type DoneFunc func(at sim.Time, req *Request)

// Request is one memory transaction of one LineSize line: the DRAM model
// serves one burst per request. Requests are issued asynchronously:
// the backend completes each request exactly once (for reads at data
// return; writes are posted and complete when the controller accepts them
// into its write queue). Acquire requests from a RequestPool on hot paths;
// literal construction remains valid for cold ones.
type Request struct {
	Addr   uint64
	Op     Op
	Issued sim.Time

	// Done is the completion callback; nil means fire-and-forget (the
	// record is still released on completion).
	Done DoneFunc
	// Ctx is a caller-owned context word threaded to Done, for issuers
	// that multiplex one callback over unrelated streams.
	Ctx uint64
	// User is a second, caller-level completion slot: layered issuers (the
	// cache port) keep their own bookkeeping in Done and store the core's
	// load-to-use callback here. It is not invoked by the pool — the Done
	// callback decides when and whether to fire it, typically after the
	// record is gone, which is why it takes only the completion time.
	User func(at sim.Time)
	// Parent links the upstream request a wrapper model is serving: the
	// CXL expander and remote-socket emulation acquire a device-side inner
	// request and complete Parent from its Done callback.
	Parent *Request

	pool     *RequestPool // owning pool; nil for literal requests
	inflight bool         // acquired and not yet released
	next     *Request     // free-list link

	// Prebuilt per-record closures (created once per record, reused across
	// recycles) — the allocation-free forms of "schedule my completion"
	// and "deliver me to a backend later".
	fire    func(sim.Time)
	deliver func(sim.Time)
	dest    Backend // delivery target for SendAt
}

// Complete finishes the request at time at: it invokes Done (when set) and
// then releases the record to its pool. Backends call Complete directly for
// same-instant completion and CompleteAt to schedule it. Completing a
// pooled request that was already released panics — a double Done is a
// protocol bug that would otherwise corrupt an unrelated recycled request.
func (r *Request) Complete(at sim.Time) {
	if r.pool != nil && !r.inflight {
		panic("mem: request completed after release (double completion?)")
	}
	if done := r.Done; done != nil {
		done(at, r)
	}
	r.release()
}

// CompleteAt schedules the request's completion at absolute time at, using
// the record's prebuilt callback (no capturing closure). A request with no
// Done callback has no observer: its record is released immediately rather
// than holding a pool slot and an engine event until at.
func (r *Request) CompleteAt(eng *sim.Engine, at sim.Time) {
	r.CompleteAtTagged(eng, at, 0)
}

// CompleteAtTagged is CompleteAt with an explicit entity tag: the
// completion event sorts among equal-(deadline, instant) events by tag
// instead of by schedule order. DRAM channels and the device models
// (cxl.DevTagBase) complete this way, and every checked-in curve was
// generated in that order, so moving a completion to plain CompleteAt
// would change results where ties occur.
func (r *Request) CompleteAtTagged(eng *sim.Engine, at sim.Time, tag int32) {
	if r.Done == nil {
		r.release()
		return
	}
	eng.ScheduleKeyed(at, eng.Now(), tag, r.fireFn())
}

// SendAt schedules delivery of the request to a backend at absolute time
// at — the timed hand-off of on-chip and link hops. Issued is stamped with
// the delivery time. The record's prebuilt deliver closure makes the hop
// allocation-free.
func (r *Request) SendAt(eng *sim.Engine, to Backend, at sim.Time) {
	r.dest = to
	eng.Schedule(at, r.deliverFn())
}

func (r *Request) fireFn() func(sim.Time) {
	if r.fire == nil { // literal request: build on first use
		r.fire = func(at sim.Time) { r.Complete(at) }
	}
	return r.fire
}

func (r *Request) deliverFn() func(sim.Time) {
	if r.deliver == nil {
		r.deliver = func(at sim.Time) {
			r.Issued = at
			r.dest.Access(r)
		}
	}
	return r.deliver
}

// release returns the record to its pool; literal requests are untouched.
// Releasing a record that is already back on the free list panics — every
// double-completion path (Complete, CompleteAt with or without a callback)
// funnels through here, so none can silently self-link the free list.
func (r *Request) release() {
	p := r.pool
	if p == nil {
		return
	}
	if !r.inflight {
		panic("mem: request released after release (double completion?)")
	}
	r.inflight = false
	r.Done, r.User, r.Parent, r.dest = nil, nil, nil, nil
	r.next = p.free
	p.free = r
	p.live--
}

// RequestPool is a free-list allocator for Request records, one per
// simulation instance. Like the engine it serves, a pool is intentionally
// not safe for concurrent use: experiments parallelize across engines, and
// each engine's components share one pool. Records are recycled on
// completion, so steady-state issue/complete cycles allocate nothing.
type RequestPool struct {
	free *Request
	all  []*Request // every record ever created, so Reset can find the acquired ones
	live int        // currently acquired
}

// NewRequestPool returns an empty pool; records are created on demand and
// recycled thereafter.
func NewRequestPool() *RequestPool { return &RequestPool{} }

// Get acquires a record initialized for one transaction, with cleared
// context slots. The caller owns the record until it hands it to a backend
// via Access; the pool takes it back when the backend completes it.
func (p *RequestPool) Get(addr uint64, op Op, done DoneFunc) *Request {
	r := p.free
	if r == nil {
		r = &Request{pool: p}
		// Prebuild the schedule-shaped closures once per record; every
		// recycle reuses them, which is what keeps CompleteAt and SendAt
		// allocation-free in steady state.
		r.fireFn()
		r.deliverFn()
		p.all = append(p.all, r)
	} else {
		p.free = r.next
		r.next = nil
	}
	r.Addr, r.Op, r.Done = addr, op, done
	r.Issued, r.Ctx = 0, 0
	r.inflight = true
	p.live++
	return r
}

// Live reports the number of records currently acquired and not yet
// released — the in-flight transaction count of the pool's simulation.
func (p *RequestPool) Live() int { return p.live }

// Allocated reports how many records the pool has ever created; a warm
// steady state holds this constant while Live oscillates below it.
func (p *RequestPool) Allocated() int { return len(p.all) }

// Reset reclaims every record still acquired, for a pool whose simulation
// was abandoned mid-flight (its engine Reset with completions pending). Done
// is not invoked; the records go through the ordinary release, so
// completing a reclaimed record panics.
func (p *RequestPool) Reset() {
	for _, r := range p.all {
		if r.inflight {
			r.release()
		}
	}
}

// Backend is anything that can service memory requests: the detailed DRAM
// system, a behavioural model from the zoo, the CXL expander model, or the
// Mess analytical simulator.
type Backend interface {
	// Access submits a request at the current engine time, transferring
	// ownership. The backend must complete the request exactly once
	// (Complete / CompleteAt), at a time ≥ now; completion invokes Done
	// and returns the record to its pool.
	Access(req *Request)
}

// TimedBackend is a Backend that also accepts requests at a future time:
// AccessAt is the backend-routed form of SendAt. What it changes is where
// traffic is counted: a CountingBackend over a timed backend counts each
// request when it is sent, not when it arrives. The detailed DRAM system
// implements it and the cache hierarchy sends through it, because every
// result was measured under count-at-send: moving the count to arrival is a
// change of results (the results golden moves).
type TimedBackend interface {
	Backend
	// AccessAt submits the request for delivery at absolute time at ≥ now,
	// transferring ownership immediately. Issued is stamped with the
	// delivery time, as with SendAt.
	AccessAt(req *Request, at sim.Time)
}

// TimedOn adapts an untimed backend to TimedBackend by scheduling each
// delivery on the given engine. It lets a closed loop drive an untimed
// device model through the same timed hop the cache hierarchy gives the
// detailed DRAM system: perfload.NewTimedClosedLoop over the CXL expander
// is messperf's model/cxl row and the benchmark module's
// cxl.closed_loop_ns, and both build it with TimedOn.
type TimedOn struct {
	Eng   *sim.Engine
	Inner Backend
}

// Access submits at the current engine time, directly to the inner
// backend.
func (t *TimedOn) Access(req *Request) { t.Inner.Access(req) }

// AccessAt schedules delivery to the inner backend at absolute time at.
func (t *TimedOn) AccessAt(req *Request, at sim.Time) { req.SendAt(t.Eng, t.Inner, at) }

var _ TimedBackend = (*TimedOn)(nil)

// Timed unwraps b to its TimedBackend form if it has one, looking through
// CountingBackend wrappers. A CountingBackend is timed exactly when its
// inner backend is (the wrapper counts at submit time either way, so both
// modes account traffic at the same instant). Use this instead of a direct
// type assertion: CountingBackend always carries the AccessAt method, but
// forwarding it to an untimed inner backend would panic.
func Timed(b Backend) (TimedBackend, bool) {
	if cb, ok := b.(*CountingBackend); ok {
		if _, ok := Timed(cb.Inner); ok {
			return cb, true
		}
		return nil, false
	}
	if tb, ok := b.(TimedBackend); ok {
		return tb, true
	}
	return nil, false
}

// BackendFactory builds a backend on a specific engine; harnesses use it to
// instantiate the memory model under test once per measurement point.
type BackendFactory func(eng *sim.Engine) Backend

// Counters mirrors the uncore bandwidth counters the Mess benchmark reads on
// real hardware: bytes and transactions, split by direction.
type Counters struct {
	Reads      uint64
	Writes     uint64
	ReadBytes  uint64
	WriteBytes uint64
}

// Add records one transaction.
func (c *Counters) Add(op Op, bytes int) {
	if op == Read {
		c.Reads++
		c.ReadBytes += uint64(bytes)
	} else {
		c.Writes++
		c.WriteBytes += uint64(bytes)
	}
}

// Sub returns the element-wise difference c − prev, i.e. the traffic between
// two counter snapshots.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Reads:      c.Reads - prev.Reads,
		Writes:     c.Writes - prev.Writes,
		ReadBytes:  c.ReadBytes - prev.ReadBytes,
		WriteBytes: c.WriteBytes - prev.WriteBytes,
	}
}

// TotalBytes reports read plus write traffic.
func (c Counters) TotalBytes() uint64 { return c.ReadBytes + c.WriteBytes }

// TotalOps reports the transaction count.
func (c Counters) TotalOps() uint64 { return c.Reads + c.Writes }

// BandwidthGBs reports the counter window as a bandwidth in GB/s
// (10^9 bytes per second, the unit used throughout the paper).
func (c Counters) BandwidthGBs(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.TotalBytes()) / elapsed.Seconds() / 1e9
}

// ReadRatio reports the fraction of memory traffic that is reads, in
// [0,1]. An empty window reports 1 (the convention for unloaded systems:
// the latency probe itself is pure reads).
func (c Counters) ReadRatio() float64 {
	total := c.TotalBytes()
	if total == 0 {
		return 1
	}
	return float64(c.ReadBytes) / float64(total)
}

func (c Counters) String() string {
	return fmt.Sprintf("reads=%d writes=%d readB=%d writeB=%d", c.Reads, c.Writes, c.ReadBytes, c.WriteBytes)
}

// CountingBackend wraps a Backend and maintains Counters for every request
// that passes through, so that traffic accounting works uniformly across
// backends that do not track their own statistics. As a wrapper it
// observes and forwards: the inner backend keeps sole responsibility for
// completing (and thereby releasing) each request.
type CountingBackend struct {
	Inner Backend
	C     Counters
}

// NewCounting wraps inner in a CountingBackend.
func NewCounting(inner Backend) *CountingBackend { return &CountingBackend{Inner: inner} }

// Access counts the request and forwards it.
func (b *CountingBackend) Access(req *Request) {
	b.C.Add(req.Op, LineSize)
	b.Inner.Access(req)
}

// AccessAt counts the request at submit time and forwards the timed
// delivery. Only valid when the inner backend is a TimedBackend — gate
// through Timed rather than asserting on the wrapper directly.
func (b *CountingBackend) AccessAt(req *Request, at sim.Time) {
	b.C.Add(req.Op, LineSize)
	b.Inner.(TimedBackend).AccessAt(req, at)
}

// Snapshot returns the current counter values.
func (b *CountingBackend) Snapshot() Counters { return b.C }
