package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildGoldenTrace records a fixed event sequence against a fake clock,
// exercising both time domains (wall tracks via Begin/End, a sim-time
// track via explicit Span timestamps), args of every type, and escaping.
func buildGoldenTrace() *Tracer {
	tr := NewTracer()
	now := int64(0)
	tr.SetClock(func() int64 { now += 1500; return now })

	charz := tr.NewTrack("charz", "fill")
	bench := tr.NewTrack("bench", "worker-0")
	simT := tr.NewTrack("sim", "point-0")

	sp := tr.Begin(charz, "characterize")
	tr.Span(bench, "sweep-point", 2000, 750,
		String("pattern", `seq "quoted"`), Int("events", 12345), Float("mlp", 3.5))
	sp.End(String("key", "fig2/0"), Int("tiers", 3))
	// Sim-domain spans: timestamps are simulated ns, unrelated to the
	// wall clock above.
	tr.Span(simT, "window", 0, 50000, Int("messages", 9))
	tr.Span(simT, "window", 50000, 50001)
	return tr
}

func TestWriteChromeGolden(t *testing.T) {
	var b bytes.Buffer
	if err := buildGoldenTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("trace output differs from golden:\n got:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

// TestWriteChromeIsValidTraceEventJSON proves the hand-built document
// parses as the Chrome trace_event JSON object format Perfetto loads:
// a traceEvents array whose entries carry ph/pid/tid/ts and name.
func TestWriteChromeIsValidTraceEventJSON(t *testing.T) {
	var b bytes.Buffer
	if err := buildGoldenTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b.Bytes())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", ev.Name, ev.Dur)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Pid <= 0 {
			t.Errorf("event %q has pid %d", ev.Name, ev.Pid)
		}
	}
	// 3 process_name + 3 thread_name metadata, 4 spans.
	if meta != 6 || complete != 4 {
		t.Fatalf("event mix meta=%d complete=%d, want 6/4", meta, complete)
	}
}

func TestTracerDropBound(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxEvents(3)
	track := tr.NewTrack("p", "t")
	for i := 0; i < 10; i++ {
		tr.Span(track, "s", int64(i), 1)
	}
	if tr.Events() != 3 {
		t.Fatalf("buffered = %d, want 3", tr.Events())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got, ok := doc["droppedEvents"].(float64); !ok || got != 7 {
		t.Fatalf("droppedEvents = %v, want 7", doc["droppedEvents"])
	}
}

// TestTracerConcurrentRecord is the -race proof for the recording path.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := tr.NewTrack("proc", "worker")
			for i := 0; i < 500; i++ {
				tr.Span(track, "op", int64(i), 1, Int("w", int64(w)))
			}
		}(w)
	}
	wg.Wait()
	if tr.Events() != 8*500 {
		t.Fatalf("events = %d, want %d", tr.Events(), 8*500)
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("concurrent trace output is not valid JSON")
	}
}
