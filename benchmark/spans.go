package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/mess-sim/mess/internal/telemetry"
)

// layerHarness is the layer of spans that only group other spans (an
// iteration, a phase): their self time is benchmark bookkeeping and the
// gaps between calls, i.e. wall-clock no layer of the program accounts for.
const layerHarness = "benchmark"

// span is one benchmark-side call into a layer of the program.
type span struct {
	name, layer string
	track       string
	start, end  int64 // ns on the tracer's clock
	parent      int   // index into recorder.spans; -1 for a root
	iter        int   // the iteration this span belongs to
}

// recorder keeps the traced pass's spans in memory. Every span is also
// mirrored onto the telemetry tracer, so the exported Chrome trace shows
// the benchmark's calls above the program's own sweep/point/fill spans.
type recorder struct {
	tr *telemetry.Tracer

	mu     sync.Mutex
	spans  []span
	tracks map[string]telemetry.Track
}

func newRecorder(tr *telemetry.Tracer) *recorder {
	return &recorder{tr: tr, tracks: map[string]telemetry.Track{}}
}

func (r *recorder) begin(s span) int {
	s.start = r.tr.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) finish(id int) {
	end := r.tr.Now()
	r.mu.Lock()
	r.spans[id].end = end
	s := r.spans[id]
	tk, ok := r.tracks[s.track]
	if !ok {
		tk = r.tr.NewTrack("benchmark", s.track)
		r.tracks[s.track] = tk
	}
	r.mu.Unlock()
	r.tr.Span(tk, s.name, s.start, s.end-s.start,
		telemetry.String("layer", s.layer), telemetry.Int("iter", int64(s.iter)),
		telemetry.Int("id", int64(id)), telemetry.Int("parent", int64(s.parent)))
}

// scope is one goroutine's position in the span tree. The zero scope (no
// recorder) is the untraced pass: span just calls through and tel is nil,
// so the program runs exactly as its users run it.
type scope struct {
	rec    *recorder
	tel    *telemetry.Set // handed to the program's Telemetry config fields
	parent int
	track  string
	iter   int
}

func (s scope) traced() bool { return s.rec != nil }

// span times f as a call into layer. f receives the scope nested calls
// must use, so parent/child follows the call structure.
func (s scope) span(layer, name string, f func(scope)) {
	if s.rec == nil {
		f(s)
		return
	}
	id := s.rec.begin(span{name: name, layer: layer, track: s.track, parent: s.parent, iter: s.iter})
	child := s
	child.parent = id
	f(child)
	s.rec.finish(id)
}

// client forks a scope for a concurrent closed-loop client: same parent,
// its own track, so parallel calls do not overlap on one timeline row.
func (s scope) client(i int) scope {
	s.track = fmt.Sprintf("%s/client-%d", s.track, i)
	return s
}

// selfTimes attributes wall-clock to layers: a span's self time is its
// duration minus the part of that interval its children cover (the union,
// because concurrent clients' calls overlap). It returns self time per
// layer in ns and how much of the root spans' wall-clock (total) lies inside
// a non-harness span (covered).
func selfTimes(spans []span) (byLayer map[string]int64, covered, total int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byLayer = map[string]int64{}
	for i, s := range spans {
		self := (s.end - s.start) - unionWithin(spans, children[i], s.start, s.end)
		byLayer[s.layer] += self
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	covered = total - byLayer[layerHarness]
	return byLayer, covered, total
}

// unionWithin is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func unionWithin(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].start, spans[id].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi, started = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return covered + (curHi - curLo)
}

// progSpan is a span the program itself recorded (PR-10 telemetry): a
// bench sweep or point, a charz fill, a sampled-replay phase.
type progSpan struct {
	proc, thread, name string
	start, dur         int64 // ns
	args               map[string]any
}

// exportTrace writes the tracer's Chrome trace and parses the program-side
// spans back out of it: the tracer has no read API, and the file is the
// artifact a reader opens anyway, so the numbers come from what it says.
func exportTrace(tr *telemetry.Tracer) (chrome []byte, prog []progSpan, err error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, nil, fmt.Errorf("parsing exported trace: %w", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		name, _ := e.Args["name"].(string)
		if e.Name == "process_name" {
			procs[e.Pid] = name
		} else if e.Name == "thread_name" {
			threads[[2]int{e.Pid, e.Tid}] = name
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || procs[e.Pid] == "benchmark" {
			continue
		}
		prog = append(prog, progSpan{
			proc: procs[e.Pid], thread: threads[[2]int{e.Pid, e.Tid}], name: e.Name,
			start: int64(e.Ts * 1000), dur: int64(e.Dur * 1000), args: e.Args,
		})
	}
	return buf.Bytes(), prog, nil
}

// adopt nests the program's own sweep spans under the benchmark-side call
// that contains them, so a charz call's self time is what charz adds on
// top of the bench sweep it ran. Only charz → bench nests this way today.
func (r *recorder) adopt(prog []progSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range prog {
		if p.proc != "bench" || !strings.HasPrefix(p.name, "sweep ") {
			continue
		}
		best := -1
		for i, s := range r.spans {
			if s.layer != "charz" || p.start < s.start || p.start+p.dur > s.end {
				continue
			}
			if best < 0 || s.start > r.spans[best].start {
				best = i
			}
		}
		if best >= 0 {
			r.spans = append(r.spans, span{
				name: p.name, layer: "bench", track: r.spans[best].track,
				start: p.start, end: p.start + p.dur, parent: best, iter: r.spans[best].iter,
			})
		}
	}
}

func argNum(args map[string]any, key string) float64 {
	v, _ := args[key].(float64)
	return v
}
