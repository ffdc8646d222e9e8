package trace_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
)

// servingKinds are the models that fix a request's completion time at its
// arrival: Replay drives them as a loop over the records.
var servingKinds = []memmodel.Kind{memmodel.KindFixed, memmodel.KindMD1, memmodel.KindDRAMsim3, memmodel.KindRamulator, memmodel.KindRamulator2}

// eventOnly hides a model's Serve, so that Replay drives it through the
// event feed: the reference the loop is held to.
type eventOnly struct{ mem.Backend }

// replayOutcome is what a replay leaves observable: its result, the
// model's row statistics (zero for the models that keep none) and where
// the engine ends. steps, the events the engine ran, tells the drivers
// apart and is not compared.
type replayOutcome struct {
	res   trace.ReplayResult
	rows  dram.RowStats
	end   sim.Time
	steps uint64
}

func serveFactory(t testing.TB, kind memmodel.Kind) mem.BackendFactory {
	mk, err := memmodel.Factory(kind, platform.Graviton3(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// replayBoth replays src into a fresh model from mk through Serve and
// through the event feed, on engines whose clocks stand at start.
func replayBoth(mk mem.BackendFactory, src trace.Source, start sim.Time) (loop, feed replayOutcome) {
	run := func(hide bool) replayOutcome {
		eng := sim.New()
		eng.RunUntil(start)
		m := mk(eng)
		b := m
		if hide {
			b = eventOnly{m}
		}
		o := replayOutcome{res: trace.Replay(eng, b, src), end: eng.Now(), steps: eng.Steps()}
		if rs, ok := m.(interface{ RowStats() dram.RowStats }); ok {
			o.rows = rs.RowStats()
		}
		return o
	}
	return run(false), run(true)
}

// checkServeReplay holds the loop to the feed on recs, in both forms.
func checkServeReplay(t *testing.T, recs []trace.Record, start sim.Time) {
	t.Helper()
	for _, kind := range servingKinds {
		mk := serveFactory(t, kind)
		for form, src := range map[string]trace.Source{"trace": &trace.Trace{Records: recs}, "packed": trace.Pack(recs)} {
			loop, feed := replayBoth(mk, src, start)
			if loop.steps != 0 {
				t.Fatalf("%s/%s: the engine ran %d events: Replay did not drive the model as a loop", kind, form, loop.steps)
			}
			loop.steps, feed.steps = 0, 0
			if loop != feed {
				t.Fatalf("%s/%s, %d records from %d ps: the loop diverges from the feed:\nloop %+v\nfeed %+v", kind, form, len(recs), start, loop, feed)
			}
		}
	}
}

// splitmix is the tests' seeded generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// genTrace builds n records from seed, starting at base, with arrival gaps
// drawn below maxGap: scattered lines, a third of them writes.
func genTrace(seed uint64, n int, base, maxGap sim.Time) []trace.Record {
	rng := splitmix(seed)
	recs := make([]trace.Record, n)
	at := base
	for i := range recs {
		v := rng.next()
		recs[i] = trace.Record{At: at, Addr: v % (1 << 26) * mem.LineSize, Write: v>>40%3 == 0}
		at += sim.Time(v>>8) % maxGap
	}
	return recs
}

// TestServeReplayMatchesFeed holds the loop Replay drives a serving model
// with to the event feed, bit for bit: ReplayResult, the row statistics and
// where the engine ends, from a *Trace and a *Packed, on engines started
// at zero and mid-run. The traces cover a backlog behind Ramulator 2's
// wall, DRAMsim3's low-bandwidth bump, timestamps that go backwards or
// below the first record's, equal timestamps, a write-only trace, one
// record, and gaps longer than the engine wheel's horizon. A sampled
// replay, whose windows each start on the trace clock after a warm-up
// prefix, gives the same SampledResult either way.
func TestServeReplayMatchesFeed(t *testing.T) {
	backlog := genTrace(1, 5000, 7*sim.Microsecond, sim.Nanosecond)
	backward := slices.Clone(backlog)
	for i := 13; i < len(backward); i += 13 {
		backward[i].At -= sim.Time(1+(i/13)%40) * sim.Nanosecond
	}
	backward[7].At = 0
	equal := genTrace(2, 2000, 0, 1)
	for i := range equal {
		equal[i].At = 3 * sim.Microsecond
	}
	writes := genTrace(3, 3000, 0, 2*sim.Nanosecond)
	for i := range writes {
		writes[i].Write = true
	}
	gaps := genTrace(4, 3000, 0, 2*sim.Nanosecond)
	for i := 1; i < len(gaps); i += 50 {
		for j := i; j < len(gaps); j++ {
			gaps[j].At += sim.Time(i%7) * 5 * sim.Microsecond
		}
	}
	for name, recs := range map[string][]trace.Record{
		"backlog":    backlog,
		"paced":      genTrace(5, 4000, 0, 40*sim.Nanosecond),
		"backward":   backward,
		"equal":      equal,
		"write-only": writes,
		"one record": {{At: 5 * sim.Nanosecond, Addr: 0x40}},
		"long gaps":  gaps,
	} {
		t.Run(name, func(t *testing.T) {
			for _, start := range []sim.Time{0, 3 * sim.Microsecond} {
				checkServeReplay(t, recs, start)
			}
		})
	}

	spec := platform.Graviton3()
	mapper := dram.NewMapper(&spec.DRAM)
	cfg := trace.SampleConfig{Span: 2 * sim.Microsecond, BankRow: mapper.BankRow}
	recs := genTrace(6, 20000, 0, 3*sim.Nanosecond)
	for _, kind := range servingKinds {
		mk := serveFactory(t, kind)
		hidden := func(eng *sim.Engine) mem.Backend { return eventOnly{mk(eng)} }
		for form, src := range map[string]trace.Source{"trace": &trace.Trace{Records: recs}, "packed": trace.Pack(recs)} {
			loop, err := trace.Sampled(mk, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed, err := trace.Sampled(hidden, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loop, feed) {
				t.Fatalf("sampled %s/%s: the loop diverges from the feed:\nloop %+v\nfeed %+v", kind, form, loop.Estimate, feed.Estimate)
			}
		}
	}
}

// TestServeReplayKeepsNoStatePerRecord: a replay into a serving model
// allocates as many objects for 100,000 records as for 10,000, so a
// backlog behind the model's bandwidth holds no request or event records.
func TestServeReplayKeepsNoStatePerRecord(t *testing.T) {
	short, long := genTrace(7, 10000, 0, sim.Nanosecond), genTrace(7, 100000, 0, sim.Nanosecond)
	for _, kind := range servingKinds {
		mk := serveFactory(t, kind)
		for form, pk := range map[string]func([]trace.Record) trace.Source{
			"trace":  func(r []trace.Record) trace.Source { return &trace.Trace{Records: r} },
			"packed": func(r []trace.Record) trace.Source { return trace.Pack(r) },
		} {
			allocs := func(src trace.Source) float64 {
				return testing.AllocsPerRun(1, func() {
					eng := sim.New()
					trace.Replay(eng, mk(eng), src)
				})
			}
			if a, b := allocs(pk(short)), allocs(pk(long)); a != b {
				t.Errorf("%s/%s: a replay of 10,000 records allocates %v objects, of 100,000 %v", kind, form, a, b)
			}
		}
	}
}

// FuzzServeReplay holds the loop to the feed on arbitrary record
// sequences: each step's byte picks how the timestamp moves (not at all,
// a little, backwards, past the wheel's horizon), how the address moves
// and whether the record writes, and the engine starts at zero or mid-run.
func FuzzServeReplay(f *testing.F) {
	f.Add([]byte{0x01, 0x09, 0x4a, 0x12}, uint16(300), false)
	f.Add([]byte{0x00, 0x48, 0x03, 0x05, 0x04}, uint16(2000), true)
	f.Add([]byte{0x06, 0x47, 0x0b, 0x1c}, uint16(500), false)
	f.Fuzz(func(t *testing.T, steps []byte, n uint16, midRun bool) {
		if len(steps) == 0 || n == 0 {
			return
		}
		recs := make([]trace.Record, n)
		r := trace.Record{At: sim.Time(steps[0]) * sim.Nanosecond}
		for i := range recs {
			b := steps[i%len(steps)]
			k := uint64(i+1) * 0x9e3779b97f4a7c15
			switch b & 7 {
			case 0: // the same instant
			case 1:
				r.At += sim.Time(b >> 3)
			case 2:
				r.At += sim.Time(k >> 52)
			case 3:
				r.At += sim.Microsecond + sim.Time(k>>44) // past the wheel's horizon
			case 4:
				r.At -= sim.Time(k>>50) + 1
			case 5:
				r.At += sim.Time(k >> 48)
			case 6:
				r.At += 100 * sim.Microsecond
			case 7:
				r.At += sim.Nanosecond
			}
			switch b >> 3 & 3 {
			case 0: // the same line
			case 1:
				r.Addr += mem.LineSize
			case 2:
				r.Addr = k
			case 3:
				r.Addr ^= k >> 20
			}
			r.Write = b&0x40 != 0
			recs[i] = r
		}
		var start sim.Time
		if midRun {
			start = 2 * sim.Microsecond
		}
		checkServeReplay(t, recs, start)
	})
}
