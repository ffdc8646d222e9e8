package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/exp"
)

func TestParseScale(t *testing.T) {
	for name, want := range map[string]exp.Scale{"quick": exp.Quick, "full": exp.Full} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
		// The flag convention and Scale.String are one vocabulary.
		if got.String() != name {
			t.Errorf("ParseScale(%q).String() = %q", name, got.String())
		}
	}
	for _, name := range []string{"", "Quick", "medium"} {
		if _, err := ParseScale(name); err == nil {
			t.Errorf("ParseScale(%q) accepted", name)
		}
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, stop := Context(20 * time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a 20 ms -timeout did not cancel the context")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestContextStopAndSignal(t *testing.T) {
	// No timeout: only stop or a signal ends it.
	ctx, stop := Context(0)
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("Context(0) set a deadline")
	}
	if ctx.Err() != nil {
		t.Fatalf("fresh context already done: %v", ctx.Err())
	}
	stop()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("after stop: err = %v, want Canceled", ctx.Err())
	}

	// stop releases the timeout's timer and the signal watcher alike.
	ctx, stop = Context(time.Hour)
	stop()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("after stop with a timeout pending: err = %v, want Canceled", ctx.Err())
	}

	// The first SIGTERM cancels instead of killing the process.
	ctx, stop = Context(0)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
}

// ownFlagSet swaps in a flag set of the test's own until the test ends, so
// tests can register and parse the shared flags without touching the
// process's.
func ownFlagSet(t *testing.T) {
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
}

// telemetryFlags registers the telemetry flags on such a set and parses args.
func telemetryFlags(t *testing.T, args ...string) *Telemetry {
	t.Helper()
	ownFlagSet(t)
	tel := TelemetryFlags().WithTrace()
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tel
}

func TestTelemetrySetIdempotent(t *testing.T) {
	tel := telemetryFlags(t, "-v")
	if !tel.Verbose || tel.TraceOut != "" {
		t.Fatalf("flags parsed as %+v", tel)
	}
	set := tel.Set()
	if set.Metrics == nil || set.Log == nil {
		t.Fatalf("set lacks a registry or a logger: %+v", set)
	}
	if set.Tracer != nil {
		t.Fatal("a tracer without -trace-out")
	}
	if tel.Set() != set {
		t.Fatal("Set built a second bundle: counters registered on the first would be lost")
	}
}

func TestWriteTrace(t *testing.T) {
	// Without -trace-out there is no tracer and nothing to write.
	tel := telemetryFlags(t)
	if err := tel.WriteTrace(); err != nil {
		t.Fatal(err)
	}
	if tel.Set().Tracer != nil {
		t.Fatal("a tracer without -trace-out")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace.json")
	tel = telemetryFlags(t, "-trace-out", path)
	tr := tel.Set().Trace()
	if tel.Set().Tracer == nil {
		t.Fatal("-trace-out built no tracer")
	}
	tr.Begin(tr.NewTrack("cli", "test"), "span").End()
	if err := tel.WriteTrace(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		found = found || (e.Name == "span" && e.Ph == "X")
	}
	if !found {
		t.Fatalf("the recorded span is not among the file's %d events", len(doc.TraceEvents))
	}

	// A path that cannot be created is an error, not a silent skip.
	tel = telemetryFlags(t, "-trace-out", filepath.Join(dir, "missing", "run.json"))
	if err := tel.WriteTrace(); err == nil {
		t.Fatal("WriteTrace into a missing directory reported success")
	}
}

func TestCacheFlags(t *testing.T) {
	ownFlagSet(t)
	cache := CacheFlags()
	for _, name := range []string{"cache-dir", "timeout"} {
		if flag.Lookup(name) == nil {
			t.Errorf("-%s is not registered", name)
		}
	}
	// -cache-dir alone decides where a curve comes from, and the store it
	// names has no size budget to set.
	for _, name := range []string{"cache-url", "cache-max-mb"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is registered", name)
		}
	}
	dir := filepath.Join(t.TempDir(), "curves")
	if err := flag.CommandLine.Parse([]string{"-cache-dir", dir, "-timeout", "1h"}); err != nil {
		t.Fatal(err)
	}
	ctx, stop := cache.Context()
	defer stop()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("-timeout 1h set no deadline on the run's context")
	}
	// -cache-dir gives the service a disk tier: building the service opens
	// the directory, creating it.
	if svc := cache.Service(nil); svc == nil {
		t.Fatal("no service")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("-cache-dir was not opened as a curve store: %v", err)
	}
}

// A write the device refuses is an error, not "written": /dev/full accepts
// the open and fails every write with ENOSPC, as a full disk does.
func TestWriteFileReportsAFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here:", err)
	}
	err := WriteFile("/dev/full", func(w io.Writer) error {
		_, err := w.Write([]byte("curves\n"))
		return err
	})
	if err == nil {
		t.Fatal("WriteFile to /dev/full reported success")
	}

	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "curves\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "curves\n" {
		t.Fatalf("read back %q, %v", data, err)
	}
}
