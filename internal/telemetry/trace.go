package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer records spans and exports them as Chrome trace_event JSON — the
// format chrome://tracing and Perfetto load — so "where does the time
// inside a run go" becomes a timeline instead of a guess. Begin and End
// timestamp spans with the tracer's monotonic clock (charz fills, bench
// sweep points, trace-replay phases). Span takes its timestamps from the
// caller, so a second time domain — simulated nanoseconds, the timeline
// the "sim-timeline tracer" is named for — can share a trace on process
// tracks of its own; the golden test records one.
//
// All recording methods are nil-receiver-safe and a recording is one
// mutex-guarded append — cheap enough for per-point events, and exactly
// zero cost (one nil check) when tracing is off. The event buffer is
// bounded (MaxEvents); once full, further events are counted as dropped
// rather than growing without bound on a long fleet run.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	procs   []process
	max     int
	dropped uint64
	seq     uint64

	epoch time.Time
	clock func() int64 // ns since epoch; injectable for deterministic tests
}

// process is one pid track group ("charz", "bench", "sim").
type process struct {
	name    string
	threads []string
}

type traceEvent struct {
	track Track
	ts    int64 // ns (wall since epoch, or sim time)
	dur   int64 // ns
	name  string
	args  []Arg
	seq   uint64
}

// Track addresses one timeline row: a (process, thread) pair allocated
// with NewTrack. The zero Track is valid and lands on an unnamed row.
type Track struct {
	pid, tid int32
}

// Arg is one key/value annotation on an event. Values are strings or
// numbers — the two things trace viewers render.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	isNum bool
}

// String builds a string-valued Arg.
func String(key, val string) Arg { return Arg{Key: key, Str: val} }

// Int builds an integer-valued Arg.
func Int(key string, val int64) Arg { return Arg{Key: key, Num: float64(val), isNum: true} }

// Float builds a float-valued Arg.
func Float(key string, val float64) Arg { return Arg{Key: key, Num: val, isNum: true} }

// defaultMaxEvents bounds a tracer's buffer: at ~100 B/event this caps
// the in-memory trace near 100 MB, far above any Quick run and still
// survivable on a full one.
const defaultMaxEvents = 1 << 20

// NewTracer builds a tracer whose wall clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{max: defaultMaxEvents, epoch: time.Now()}
	t.clock = func() int64 { return time.Since(t.epoch).Nanoseconds() }
	return t
}

// SetMaxEvents bounds the event buffer (0 restores the default). Events
// past the bound are dropped and counted, never stored.
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n <= 0 {
		n = defaultMaxEvents
	}
	t.max = n
	t.mu.Unlock()
}

// SetClock replaces the wall clock with fn (ns since an epoch of fn's
// choosing) — the deterministic-test seam.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// Now reads the tracer's wall clock: nanoseconds since its epoch, the
// timestamp base of every wall-domain event.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	v := t.clock()
	t.mu.Unlock()
	return v
}

// NewTrack allocates (or finds) the named (process, thread) row.
// Processes are created on first use; a thread name is always appended
// as a new row, so concurrent units (bench workers, parallel fills) each
// get their own line in the viewer.
func (t *Tracer) NewTrack(proc, thread string) Track {
	if t == nil {
		return Track{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid := -1
	for i := range t.procs {
		if t.procs[i].name == proc {
			pid = i
			break
		}
	}
	if pid < 0 {
		pid = len(t.procs)
		t.procs = append(t.procs, process{name: proc})
	}
	p := &t.procs[pid]
	p.threads = append(p.threads, thread)
	return Track{pid: int32(pid + 1), tid: int32(len(p.threads))}
}

// record appends one event under the buffer bound.
func (t *Tracer) record(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.seq++
	ev.seq = t.seq
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span records a complete event: [startNs, startNs+durNs) on the track.
// The caller chooses the time domain — the tracer's wall clock (Now) or
// the simulation clock.
func (t *Tracer) Span(tr Track, name string, startNs, durNs int64, args ...Arg) {
	if t == nil {
		return
	}
	t.record(traceEvent{track: tr, ts: startNs, dur: durNs, name: name, args: args})
}

// SpanTimer is an in-progress wall-clock span started by Begin.
type SpanTimer struct {
	t     *Tracer
	track Track
	name  string
	start int64
}

// Begin opens a wall-clock span on the track; End closes and records it.
// The zero SpanTimer (from a nil tracer) is a valid no-op.
func (t *Tracer) Begin(tr Track, name string) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, track: tr, name: name, start: t.Now()}
}

// End records the span opened by Begin.
func (s SpanTimer) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.Span(s.track, s.name, s.start, s.t.Now()-s.start, args...)
}

// Dropped reports how many events the buffer bound discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events reports how many events are buffered.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteChrome exports the trace as Chrome trace_event JSON (the
// "JSON object format": {"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto. Events are sorted by (pid, tid, ts,
// record order) and serialized field by field, so the bytes are a pure
// function of the recorded events — the golden-file determinism tests
// rely on it. Timestamps are emitted in microseconds (the format's unit)
// with nanosecond precision.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	procs := append([]process(nil), t.procs...)
	dropped := t.dropped
	t.mu.Unlock()

	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.track.pid != b.track.pid {
			return a.track.pid < b.track.pid
		}
		if a.track.tid != b.track.tid {
			return a.track.tid < b.track.tid
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	})

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns",`)
	if dropped > 0 {
		bw.WriteString(`"droppedEvents":`)
		bw.WriteString(strconv.FormatUint(dropped, 10))
		bw.WriteByte(',')
	}
	bw.WriteString(`"traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n ")
	}
	// Metadata names the tracks; emitted first so viewers label rows
	// before any real event references them.
	for pid := range procs {
		comma()
		bw.WriteString(`{"ph":"M","pid":`)
		bw.WriteString(strconv.Itoa(pid + 1))
		bw.WriteString(`,"tid":0,"name":"process_name","args":{"name":`)
		writeJSONString(bw, procs[pid].name)
		bw.WriteString(`}}`)
		for tid, thread := range procs[pid].threads {
			comma()
			bw.WriteString(`{"ph":"M","pid":`)
			bw.WriteString(strconv.Itoa(pid + 1))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.Itoa(tid + 1))
			bw.WriteString(`,"name":"thread_name","args":{"name":`)
			writeJSONString(bw, thread)
			bw.WriteString(`}}`)
		}
	}
	for i := range events {
		ev := &events[i]
		comma()
		bw.WriteString(`{"ph":"X","pid":`)
		bw.WriteString(strconv.Itoa(int(ev.track.pid)))
		bw.WriteString(`,"tid":`)
		bw.WriteString(strconv.Itoa(int(ev.track.tid)))
		bw.WriteString(`,"ts":`)
		writeMicros(bw, ev.ts)
		bw.WriteString(`,"dur":`)
		writeMicros(bw, ev.dur)
		bw.WriteString(`,"name":`)
		writeJSONString(bw, ev.name)
		if len(ev.args) > 0 {
			bw.WriteString(`,"args":{`)
			for ai, a := range ev.args {
				if ai > 0 {
					bw.WriteByte(',')
				}
				writeJSONString(bw, a.Key)
				bw.WriteByte(':')
				if a.isNum {
					bw.WriteString(fmtFloat(a.Num))
				} else {
					writeJSONString(bw, a.Str)
				}
			}
			bw.WriteByte('}')
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeMicros renders ns as microseconds with ns precision, no trailing
// zeros beyond the three decimals (fixed form keeps the output byte-
// deterministic across values).
func writeMicros(bw *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		bw.WriteByte('-')
		ns = -ns
	}
	bw.WriteString(strconv.FormatInt(ns/1000, 10))
	frac := ns % 1000
	if frac != 0 {
		bw.WriteByte('.')
		s := strconv.FormatInt(frac, 10)
		for len(s) < 3 {
			s = "0" + s
		}
		bw.WriteString(s)
	}
}

// writeJSONString writes a minimally escaped JSON string — names and arg
// values are ASCII identifiers and paths in practice, but control
// characters, quotes and backslashes must not corrupt the document.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString(`\u00`)
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}
