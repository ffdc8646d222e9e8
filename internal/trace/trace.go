// Package trace provides memory-trace capture and trace-driven replay —
// the methodology of Sec. IV-D: record the addresses and arrival times of
// all memory operations during a Mess benchmark run, then drive standalone
// memory models with the trace, eliminating the CPU simulator and its
// interfaces as an error source.
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

// Trace is an ordered sequence of records.
type Trace struct {
	Records []Record
}

// Bytes reports total traffic bytes (one line per record).
func (t *Trace) Bytes() uint64 { return uint64(len(t.Records)) * mem.LineSize }

// ReadRatio reports the fraction of reads.
func (t *Trace) ReadRatio() float64 {
	if len(t.Records) == 0 {
		return 1
	}
	reads := 0
	for _, r := range t.Records {
		if !r.Write {
			reads++
		}
	}
	return float64(reads) / float64(len(t.Records))
}

// Duration reports the trace's time span.
func (t *Trace) Duration() sim.Time {
	if len(t.Records) < 2 {
		return 0
	}
	return t.Records[len(t.Records)-1].At - t.Records[0].At
}

// Capture wraps a backend and records every request that passes through.
type Capture struct {
	Inner mem.Backend
	eng   *sim.Engine
	T     Trace
	Limit int // stop recording beyond this many records; 0 = unlimited
}

// NewCapture builds a capturing wrapper.
func NewCapture(eng *sim.Engine, inner mem.Backend, limit int) *Capture {
	return &Capture{Inner: inner, eng: eng, Limit: limit}
}

// Access implements mem.Backend.
func (c *Capture) Access(req *mem.Request) {
	if c.Limit == 0 || len(c.T.Records) < c.Limit {
		c.T.Records = append(c.T.Records, Record{
			At:    c.eng.Now(),
			Addr:  req.Addr,
			Write: req.Op == mem.Write,
		})
	}
	c.Inner.Access(req)
}

// CapturePoint simulates one loaded point of the Mess benchmark sweep — the
// platform's detailed DRAM system under the given mix and pacing — behind a
// capturing wrapper, and returns the first limit records that reached the
// memory controller (0: all of them) with the point's sample. The point runs
// on a machine of its own, so the trace is the one a whole sweep would have
// captured at that point. opt.Backend is ignored: the capture is the backend.
func CapturePoint(ctx context.Context, spec platform.Spec, opt bench.Options, mix bench.Mix, paceNs float64, limit int) (*Trace, bench.Sample, error) {
	if err := ctx.Err(); err != nil { // a point is atomic: the one place to stop
		return nil, bench.Sample{}, err
	}
	var cap *Capture
	opt.Backend = func(eng *sim.Engine) mem.Backend {
		cap = NewCapture(eng, dram.New(eng, spec.DRAM), limit)
		return cap
	}
	s, err := bench.MeasurePoint(spec, opt, mix, paceNs)
	if err != nil {
		return nil, s, err
	}
	tr := cap.T // a copy: the trace must not keep the capture's machine alive
	return &tr, s, nil
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
// Trace built in memory can be anything) fall back to eager scheduling,
// whose semantics the one-ahead feed reproduces only for time-ordered
// records.
func Replay(eng *sim.Engine, backend mem.Backend, t *Trace) ReplayResult {
	if len(t.Records) == 0 {
		return ReplayResult{}
	}
	if !monotonic(t.Records) {
		return replayEager(eng, backend, t)
	}
	rp := &replayer{
		eng: eng, backend: backend, recs: t.Records,
		base: t.Records[0].At, pool: mem.NewRequestPool(),
	}
	rp.run()
	return replayResult(t, eng.Now(), rp.latSum, rp.reads)
}

// monotonic reports whether the records' timestamps are non-decreasing.
func monotonic(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			return false
		}
	}
	return true
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
	recs    []Record
	base    sim.Time
	pool    *mem.RequestPool
	next    int // index of the record whose event is pending

	measureFrom int // records at or past this index count toward stats
	latSum      sim.Time
	reads       uint64
	lastDone    sim.Time // latest measured read completion instant

	fire     func(sim.Time)
	readDone mem.DoneFunc
}

func (rp *replayer) schedule(i int) {
	rp.eng.ScheduleKeyed(rp.recs[i].At-rp.base, replayKey, 0, rp.fire)
}

func (rp *replayer) step(at sim.Time) {
	i := rp.next
	rp.next++
	// Key −1 puts the successor ahead of any backend event due at the same
	// instant, so scheduling it before delivery changes no order.
	if rp.next < len(rp.recs) {
		rp.schedule(rp.next)
	}
	rec := &rp.recs[i]
	op := mem.Read
	var done mem.DoneFunc
	if rec.Write {
		op = mem.Write
	} else {
		done = rp.readDone
	}
	req := rp.pool.Get(rec.Addr, op, done)
	if i >= rp.measureFrom {
		req.Ctx = 1
	}
	req.Issued = at
	rp.backend.Access(req)
}

// run replays recs[0:] (time-sorted, not empty), counting read latency
// only for records at index ≥ measureFrom, and returns after the engine
// drains.
func (rp *replayer) run() {
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
	rp.schedule(0)
	rp.eng.Run()
}

// replayEager schedules one delivery event per record before running —
// the historical Replay, kept for traces without time order (the one-ahead
// feed's sequential delivery assumes firing order equals record order).
func replayEager(eng *sim.Engine, backend mem.Backend, t *Trace) ReplayResult {
	base := t.Records[0].At
	pool := mem.NewRequestPool()
	var latSum sim.Time
	var reads uint64
	readDone := func(done sim.Time, req *mem.Request) {
		latSum += done - req.Issued
		reads++
	}
	for i := range t.Records {
		r := &t.Records[i]
		op := mem.Read
		var done mem.DoneFunc
		if r.Write {
			op = mem.Write
		} else {
			done = readDone
		}
		req := pool.Get(r.Addr, op, done)
		req.SendAt(eng, backend, r.At-base)
	}
	eng.Run()
	return replayResult(t, eng.Now(), latSum, reads)
}

func replayResult(t *Trace, end, latSum sim.Time, reads uint64) ReplayResult {
	res := ReplayResult{ReadRatio: t.ReadRatio(), Reads: reads}
	if end > 0 {
		res.BWGBs = float64(t.Bytes()) / end.Seconds() / 1e9
	}
	if reads > 0 {
		res.ReadLatNs = (latSum / sim.Time(reads)).Nanoseconds()
	}
	return res
}
