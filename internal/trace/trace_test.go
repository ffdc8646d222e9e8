package trace

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// echoBackend completes reads after a fixed latency and counts traffic.
type echoBackend struct {
	eng *sim.Engine
	lat sim.Time
	c   mem.Counters
}

func (e *echoBackend) Access(req *mem.Request) {
	e.c.Add(req.Op, mem.LineSize)
	req.CompleteAt(e.eng, e.eng.Now()+e.lat)
}

func sampleTrace(n int) *Trace {
	t := &Trace{}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, Record{
			At:    sim.Time(i) * 10 * sim.Nanosecond,
			Addr:  uint64(i) * 64,
			Write: i%3 == 0,
		})
	}
	return t
}

func TestCaptureRecords(t *testing.T) {
	eng := sim.New()
	inner := &echoBackend{eng: eng, lat: 10 * sim.Nanosecond}
	cap := NewCapture(eng, inner, 0)
	for i := 0; i < 50; i++ {
		i := i
		eng.Schedule(sim.Time(i)*sim.Nanosecond, func() {
			op := mem.Read
			if i%2 == 0 {
				op = mem.Write
			}
			cap.Access(&mem.Request{Addr: uint64(i) * 64, Op: op})
		})
	}
	eng.Run()
	if len(cap.T.Records) != 50 {
		t.Fatalf("captured %d records", len(cap.T.Records))
	}
	if cap.T.ReadRatio() != 0.5 {
		t.Fatalf("read ratio %.2f", cap.T.ReadRatio())
	}
	if inner.c.TotalOps() != 50 {
		t.Fatal("capture did not forward requests")
	}
	// Arrival times preserved in order.
	for i := 1; i < len(cap.T.Records); i++ {
		if cap.T.Records[i].At < cap.T.Records[i-1].At {
			t.Fatal("records out of order")
		}
	}
}

func TestCaptureLimit(t *testing.T) {
	eng := sim.New()
	cap := NewCapture(eng, &echoBackend{eng: eng}, 10)
	for i := 0; i < 100; i++ {
		cap.Access(&mem.Request{Addr: uint64(i) * 64, Op: mem.Read})
	}
	if len(cap.T.Records) != 10 {
		t.Fatalf("limit ignored: %d records", len(cap.T.Records))
	}
}

func TestReplayTiming(t *testing.T) {
	tr := sampleTrace(100)
	eng := sim.New()
	backend := &echoBackend{eng: eng, lat: 25 * sim.Nanosecond}
	res := Replay(eng, backend, tr)
	if backend.c.TotalOps() != 100 {
		t.Fatalf("replayed %d ops", backend.c.TotalOps())
	}
	if res.ReadLatNs != 25 {
		t.Fatalf("mean read latency %.1f, want 25", res.ReadLatNs)
	}
	// 100 lines × 64 B over ~990 ns + 25 ns tail.
	if res.BWGBs < 5.5 || res.BWGBs > 7.0 {
		t.Fatalf("replay bandwidth %.2f GB/s", res.BWGBs)
	}
	wantRatio := tr.ReadRatio()
	if res.ReadRatio != wantRatio {
		t.Fatalf("read ratio %.2f, want %.2f", res.ReadRatio, wantRatio)
	}
}

// recordingBackend wraps a backend and logs every completion instant, for
// bit-exact comparison of replay scheduling strategies.
type recordingBackend struct {
	inner mem.Backend
	log   []completion
}

type completion struct {
	addr uint64
	at   sim.Time
}

func (r *recordingBackend) Access(req *mem.Request) {
	prev := req.Done
	addr := req.Addr
	req.Done = func(at sim.Time, rq *mem.Request) {
		r.log = append(r.log, completion{addr: addr, at: at})
		if prev != nil {
			prev(at, rq)
		}
	}
	r.inner.Access(req)
}

// adversarialTrace is time-ordered with everything the one-ahead feed could
// get wrong: duplicated timestamps (same-instant bursts, where only one of
// the tied records is ever pending) and arrival gaps equal to the echo
// latency (arrival/completion deadline collisions, where only the
// tie-break key keeps order).
func adversarialTrace() *Trace {
	tr := &Trace{}
	at := sim.Time(0)
	for i := 0; i < 3000; i++ {
		switch i % 5 {
		case 0: // burst: three records in one instant
		case 2:
			at += 25 * sim.Nanosecond // exactly the echo latency
		default:
			at += sim.Time(i%7) * sim.Nanosecond
		}
		tr.Records = append(tr.Records, Record{
			At:    at,
			Addr:  uint64(i%257) * 64,
			Write: i%3 == 0,
		})
	}
	return tr
}

// scatterTrace walks 4096 lines in a scattered order with bursts, at a
// pace that keeps a detailed backend's queues loaded.
func scatterTrace() *Trace {
	tr := &Trace{}
	at := sim.Time(0)
	for i := 0; i < 4000; i++ {
		if i%3 != 0 {
			at += sim.Time(i%5) * sim.Nanosecond
		}
		tr.Records = append(tr.Records, Record{
			At:    at,
			Addr:  uint64((i*7919)%4096) * 64,
			Write: i%4 == 0,
		})
	}
	return tr
}

// TestOneAheadReplayBitIdentical pins the one-ahead feed's contract: for a
// time-ordered trace, Replay — one record event pending at a time, each
// scheduled by its predecessor's firing — produces the same results, and
// the same completion sequence instant by instant, as eagerly scheduling
// every record up front. The backends are the event regimes replays run
// in: an echo whose latency collides with arrival gaps, the detailed DRAM
// system (tagged decide and completion events) and the DRAMsim3-like
// replica that trace-profile and fig6 replay into.
func TestOneAheadReplayBitIdentical(t *testing.T) {
	spec := platform.Skylake()
	for _, tc := range []struct {
		name string
		tr   *Trace
		mk   mem.BackendFactory
	}{
		{"echo", adversarialTrace(), func(eng *sim.Engine) mem.Backend {
			return &echoBackend{eng: eng, lat: 25 * sim.Nanosecond}
		}},
		{"dram", scatterTrace(), func(eng *sim.Engine) mem.Backend {
			return dram.New(eng, dram.DDR4(3200, 2, 2))
		}},
		{"dram-bursts", adversarialTrace(), func(eng *sim.Engine) mem.Backend {
			return dram.New(eng, dram.DDR4(3200, 2, 2))
		}},
		{"dramsim3", scatterTrace(), func(eng *sim.Engine) mem.Backend {
			return memmodel.NewDRAMsim3Like(eng, spec)
		}},
		{"dramsim3-bursts", adversarialTrace(), func(eng *sim.Engine) mem.Backend {
			return memmodel.NewDRAMsim3Like(eng, spec)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(replay func(*sim.Engine, mem.Backend, *Trace) ReplayResult) (ReplayResult, []completion, sim.Time) {
				eng := sim.New()
				rec := &recordingBackend{inner: tc.mk(eng)}
				res := replay(eng, rec, tc.tr)
				return res, rec.log, eng.Now()
			}
			eagerRes, eagerLog, eagerEnd := run(replayEager)
			res, log, end := run(Replay)
			if eagerRes != res {
				t.Fatalf("results diverge:\neager     %+v\none-ahead %+v", eagerRes, res)
			}
			if eagerEnd != end {
				t.Fatalf("engines drain at different instants: eager %d one-ahead %d", eagerEnd, end)
			}
			if len(eagerLog) == 0 || len(eagerLog) != len(log) {
				t.Fatalf("completion counts diverge: %d vs %d", len(eagerLog), len(log))
			}
			for i := range eagerLog {
				if eagerLog[i] != log[i] {
					t.Fatalf("completion %d diverges: eager %+v one-ahead %+v", i, eagerLog[i], log[i])
				}
			}
		})
	}
}

// TestReplayHoldsOneRecordEvent asserts the point of the one-ahead feed:
// whatever the trace length, the engine never holds more than one pending
// record event on top of the backend's own in-flight completions.
func TestReplayHoldsOneRecordEvent(t *testing.T) {
	tr := sampleTrace(50000)
	eng := sim.New()
	probe := &probeBackend{eng: eng, lat: 95 * sim.Nanosecond}
	probe.done = func(sim.Time) { probe.inflight-- }
	Replay(eng, probe, tr)
	if probe.accesses != len(tr.Records) {
		t.Fatalf("backend saw %d accesses, trace holds %d", probe.accesses, len(tr.Records))
	}
	if probe.maxInflight < 5 {
		t.Fatalf("probe never held more than %d completions in flight; the bound below proves nothing", probe.maxInflight)
	}
	if probe.maxRecordEvents != 1 {
		t.Fatalf("replay held up to %d pending record events, want exactly 1", probe.maxRecordEvents)
	}
}

// probeBackend completes every access after a fixed latency through events
// it counts itself, so what else the engine holds at each delivery is the
// replay's own doing.
type probeBackend struct {
	eng  *sim.Engine
	lat  sim.Time
	done func(sim.Time)

	inflight, maxInflight int
	accesses              int
	maxRecordEvents       int
}

func (p *probeBackend) Access(req *mem.Request) {
	p.accesses++
	if n := p.eng.Pending() - p.inflight; n > p.maxRecordEvents {
		p.maxRecordEvents = n
	}
	p.inflight++
	if p.inflight > p.maxInflight {
		p.maxInflight = p.inflight
	}
	p.eng.ScheduleKeyed(p.eng.Now()+p.lat, p.eng.Now(), 0, p.done)
	req.Complete(p.eng.Now())
}

func TestEmptyTraceReplay(t *testing.T) {
	eng := sim.New()
	res := Replay(eng, &echoBackend{eng: eng}, &Trace{})
	if res.Reads != 0 || res.BWGBs != 0 {
		t.Fatalf("empty replay produced %+v", res)
	}
}

// TestCapturePointMatchesSweepCapture holds CapturePoint to what it replaces:
// a one-point sweep with the capture wrapped in through Options.Backend,
// whose second backend — the first is the unloaded anchor's — is the point's.
func TestCapturePointMatchesSweepCapture(t *testing.T) {
	spec := platform.Skylake()
	spec.Cores, spec.DRAM.Channels = 6, 2
	mix, pace, limit := bench.Mix{StorePercent: 40}, 8.0, 3000

	opt := bench.QuickOptions()
	opt.Mixes, opt.PacesNs, opt.Parallelism = []bench.Mix{mix}, []float64{pace}, 1
	var caps []*Capture
	opt.Backend = func(eng *sim.Engine) mem.Backend {
		caps = append(caps, NewCapture(eng, dram.New(eng, spec.DRAM), limit))
		return caps[len(caps)-1]
	}
	res, err := bench.Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	tr, s, err := CapturePoint(context.Background(), spec, bench.QuickOptions(), mix, pace, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != limit {
		t.Fatalf("captured %d records, want the limit of %d", len(tr.Records), limit)
	}
	if want := caps[1].T.Records; !slices.Equal(tr.Records, want) {
		t.Error("the trace differs from the one a sweep captures at the same point")
	}
	if s != res.Samples[0] {
		t.Errorf("sample %+v, the sweep measured %+v", s, res.Samples[0])
	}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CapturePoint(done, spec, bench.QuickOptions(), mix, pace, limit); !errors.Is(err, context.Canceled) {
		t.Errorf("under a cancelled context: err = %v, want Canceled", err)
	}
}
