// Package trace provides memory-trace capture and trace-driven replay —
// the methodology of Sec. IV-D: record the addresses and arrival times of
// all memory operations during a Mess benchmark run, then drive standalone
// memory models with the trace, eliminating the CPU simulator and its
// interfaces as an error source.
//
// # Two in-memory forms
//
// A Trace is a []Record, 24 bytes a record: the form Read returns, the one
// NewCapture records into, and the one a trace built in memory takes. A
// Packed holds records delta-coded in fixed-size blocks, about 6.5 bytes a
// record on the fig6 captures, and is what CapturePoint returns: the
// experiments hold their captures packed, so a 400,000-record capture
// costs about 2.7 MB instead of 9.6 MB and append's growth copies. Both
// are a Source, which Replay, Sampled and Save read through a cursor of
// their own; a packed trace Saves the same bytes and replays to the same
// results, bit for bit, as the Trace of the same records.
//
// # Sampled replay
//
// Sampled replays a long trace by phase clustering ("Memory Access
// Vectors": samples chosen by memory-access behaviour, not instruction
// position). It cuts the trace into fixed-span windows, fingerprints each
// with an access vector (row-hit ratio under the platform's mapping, stride
// mix, read fraction, footprint, arrival rate, burstiness), clusters the
// vectors with a deterministic k-means and replays one representative per
// cluster, on the original trace clock after a warm-up prefix, plus a probe
// (its member farthest from the centroid) whose spread becomes the error
// bars. Full-trace bandwidth and latency are cluster-weighted sums. The
// shape is constants: 128 windows, 6 clusters, one probe, half a span of
// warm-up.
//
// The same trace and configuration give a byte-identical SampledResult:
// the seed and every tie-break are fixed, and no map order, wall clock or
// global randomness reaches a result. The estimates hold for
// quasi-stationary, closed-loop traffic: an oversaturated open-loop trace
// has no steady state a window can represent. A span must cover many
// latencies (~µs), so captures meant for sampling measure long windows:
// fig6s and messperf capture 192 µs and sample 2 µs spans, and every
// messperf run gates the estimates within 5% of the full replay at 5× fewer
// records.
package trace

import (
	"context"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// Record is one traced memory operation.
type Record struct {
	At    sim.Time // arrival at the memory controller
	Addr  uint64
	Write bool
}

// Trace is an ordered sequence of records: the form Read returns and
// NewCapture records into, 24 bytes a record. CapturePoint records into a
// Packed instead.
type Trace struct {
	Records []Record
}

// Capture wraps a backend and records every request that passes through.
type Capture struct {
	Inner mem.Backend
	eng   *sim.Engine
	T     Trace    // the records of a capture NewCapture built
	Limit int      // stop recording beyond this many records; 0 = unlimited
	to    recorder // &T, or the packed capture of CapturePoint
}

// NewCapture builds a capturing wrapper that records into T.
func NewCapture(eng *sim.Engine, inner mem.Backend, limit int) *Capture {
	c := &Capture{Inner: inner, eng: eng, Limit: limit}
	c.to = &c.T
	return c
}

// Access implements mem.Backend.
func (c *Capture) Access(req *mem.Request) {
	c.record(Record{At: c.eng.Now(), Addr: req.Addr, Write: req.Op == mem.Write})
	c.Inner.Access(req)
}

func (c *Capture) record(r Record) {
	if c.Limit == 0 || c.to.Len() < c.Limit {
		c.to.add(r)
	}
}

// CapturePoint simulates one loaded point of the Mess benchmark sweep — the
// platform's detailed DRAM system under the given mix and pacing — behind a
// capturing wrapper, and returns the first limit records that reached the
// memory controller (0: all of them), packed, with the point's sample. The
// point runs on a machine of its own, so the trace is the one a whole sweep
// would have captured at that point. opt.Backend is ignored: the capture is
// the backend.
func CapturePoint(ctx context.Context, spec platform.Spec, opt bench.Options, mix bench.Mix, paceNs float64, limit int) (*Packed, bench.Sample, error) {
	if err := ctx.Err(); err != nil { // a point is atomic: the one place to stop
		return nil, bench.Sample{}, err
	}
	var pk *Packed // holds nothing of the capture's machine
	opt.Backend = func(eng *sim.Engine) mem.Backend {
		pk = &Packed{}
		return &Capture{Inner: dram.New(eng, spec.DRAM), eng: eng, Limit: limit, to: pk}
	}
	s, err := bench.MeasurePoint(spec, opt, mix, paceNs)
	if err != nil {
		return nil, s, err
	}
	return pk, s, nil
}

// ReplayResult is the outcome of a trace-driven simulation.
type ReplayResult struct {
	BWGBs     float64
	ReadLatNs float64 // mean read round-trip from the controller
	ReadRatio float64
	Reads     uint64
}

// Replay drives the backend with the trace's own timing (arrival gaps
// encode the non-memory work, as DRAMsim3 trace formats do) and measures
// the achieved bandwidth and mean read latency. Requests come from a
// replay-local pool, the engine holds one record ahead of the clock — each
// firing record schedules its successor before it is delivered — and a
// single shared completion callback reads the issue time off the request:
// zero per-record closures, one live record event however long the trace.
// Traces whose timestamps are not non-decreasing (Read rejects them, but a
// trace built in memory can be anything) fall back to eager scheduling,
// whose semantics the one-ahead feed reproduces only for time-ordered
// records.
func Replay(eng *sim.Engine, backend mem.Backend, src Source) ReplayResult {
	n := src.Len()
	if n == 0 {
		return ReplayResult{}
	}
	first, _, ok := timeOrder(src)
	if !ok {
		return replayEager(eng, backend, src)
	}
	rp := &replayer{eng: eng, backend: backend, pool: mem.NewRequestPool()}
	rp.run(src.cursor(0), n, first)
	return replayResult(n, rp.readRecs, eng.Now(), rp.latSum, rp.reads)
}

// timeOrder reads a non-empty source once and reports its first and last
// timestamps and whether they are non-decreasing throughout.
func timeOrder(src Source) (first, last sim.Time, ok bool) {
	c := src.cursor(0)
	first = c.next().At
	last = first
	for i, n := 1, src.Len(); i < n; i++ {
		at := c.next().At
		if at < last {
			return first, at, false
		}
		last = at
	}
	return first, last, true
}

// replayKey is the tie-break key (sim.Engine's "schedule instant"
// coordinate) carried by every replayed record's delivery event. Eager
// replay schedules all records before the run, so each record event holds
// key 0 and a seq below every event the backend will ever schedule: at
// equal deadlines, records fire first, in record order. The one-ahead feed
// schedules records mid-run, where the engine would stamp them with the
// current clock and a late seq — so it injects them with key −1 instead,
// which wins every deadline tie against backend events (whose keys are
// real schedule instants ≥ 0). Record order needs no tie-break at all:
// record i+1 is scheduled by record i's own firing, at a deadline no
// earlier, so records fire in index order. The firing sequence — and hence
// all completion timing — is bit-identical to the eager one.
const replayKey = sim.Time(-1)

// replayer drives one replay of time-sorted records: a single shared fire
// callback schedules the next record, then delivers the current one. Only
// one record event is ever pending, mostly a few ns ahead of the clock, so
// it lands in the engine's timing wheel, not the overflow heap beyond the
// wheel's horizon.
type replayer struct {
	eng     *sim.Engine
	backend mem.Backend
	pool    *mem.RequestPool
	base    sim.Time // the engine clock's zero on the trace clock

	recs    cursor // the records after the pending one
	n       int    // records to replay
	next    int    // index of the record whose event is pending
	pending Record

	measureFrom int // records at or past this index count toward stats
	latSum      sim.Time
	reads       uint64
	readRecs    int      // read records delivered, measured or not
	lastDone    sim.Time // latest measured read completion instant

	fire     func(sim.Time)
	readDone mem.DoneFunc
}

func (rp *replayer) scheduleNext() {
	rp.pending = rp.recs.next()
	rp.eng.ScheduleKeyed(rp.pending.At-rp.base, replayKey, 0, rp.fire)
}

func (rp *replayer) step(at sim.Time) {
	i, rec := rp.next, rp.pending
	rp.next++
	// Key −1 puts the successor ahead of any backend event due at the same
	// instant, so scheduling it before delivery changes no order.
	if rp.next < rp.n {
		rp.scheduleNext()
	}
	op := mem.Read
	var done mem.DoneFunc
	if rec.Write {
		op = mem.Write
	} else {
		done = rp.readDone
		rp.readRecs++
	}
	req := rp.pool.Get(rec.Addr, op, done)
	if i >= rp.measureFrom {
		req.Ctx = 1
	}
	req.Issued = at
	rp.backend.Access(req)
}

// run replays the next n (≥ 1, time-sorted) records of recs on an engine
// clock whose zero is base on the trace clock, counting read latency only
// for records at index ≥ measureFrom, and returns after the engine drains.
func (rp *replayer) run(recs cursor, n int, base sim.Time) {
	rp.recs, rp.n, rp.base = recs, n, base
	rp.fire = rp.step
	rp.readDone = func(done sim.Time, req *mem.Request) {
		if req.Ctx != 0 {
			rp.latSum += done - req.Issued
			rp.reads++
			if done > rp.lastDone {
				rp.lastDone = done
			}
		}
	}
	rp.scheduleNext()
	rp.eng.Run()
}

// replayEager schedules one delivery event per record before running —
// the historical Replay, kept for traces without time order (the one-ahead
// feed's sequential delivery assumes firing order equals record order).
func replayEager(eng *sim.Engine, backend mem.Backend, src Source) ReplayResult {
	n := src.Len()
	recs := src.cursor(0)
	base := recs.peek().At
	pool := mem.NewRequestPool()
	var latSum sim.Time
	var reads uint64
	readRecs := 0
	readDone := func(done sim.Time, req *mem.Request) {
		latSum += done - req.Issued
		reads++
	}
	for i := 0; i < n; i++ {
		r := recs.next()
		op := mem.Read
		var done mem.DoneFunc
		if r.Write {
			op = mem.Write
		} else {
			done = readDone
			readRecs++
		}
		req := pool.Get(r.Addr, op, done)
		req.SendAt(eng, backend, r.At-base)
	}
	eng.Run()
	return replayResult(n, readRecs, eng.Now(), latSum, reads)
}

// replayResult is the result of replaying n records, readRecs of them
// reads, that ended at end with reads measured reads of total latency
// latSum.
func replayResult(n, readRecs int, end, latSum sim.Time, reads uint64) ReplayResult {
	res := ReplayResult{ReadRatio: float64(readRecs) / float64(n), Reads: reads}
	if end > 0 {
		res.BWGBs = float64(uint64(n)*mem.LineSize) / end.Seconds() / 1e9
	}
	if reads > 0 {
		res.ReadLatNs = (latSum / sim.Time(reads)).Nanoseconds()
	}
	return res
}
