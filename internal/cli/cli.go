// Package cli collects the small pieces every cmd/* binary previously
// duplicated: fatal-error reporting, platform lookup and scale parsing,
// the shared telemetry flags, and the shared -cache-dir / -timeout flags
// with the characterization service and root context they describe.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

// Telemetry carries the shared observability flags (-v, and for tools
// that opt in, -trace-out) and builds the telemetry.Set the tool threads
// through the stack.
type Telemetry struct {
	Verbose  bool
	TraceOut string

	set *telemetry.Set
}

// TelemetryFlags registers -v on the default flag set — the convention
// every cmd/* binary follows. Call before flag.Parse.
func TelemetryFlags() *Telemetry {
	t := &Telemetry{}
	flag.BoolVar(&t.Verbose, "v", false, "verbose: log per-characterization and per-request detail")
	return t
}

// WithTrace additionally registers -trace-out for tools that can export a
// sim-timeline trace. Call before flag.Parse; chain off TelemetryFlags.
func (t *Telemetry) WithTrace() *Telemetry {
	flag.StringVar(&t.TraceOut, "trace-out", "", "write a Chrome trace_event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)")
	return t
}

// Set resolves the flags into the tool's observability bundle: a
// structured logger always, a tracer when -trace-out asked for one. It
// holds no metrics registry: a tool that reads counters sets Metrics
// itself. Idempotent after flag.Parse.
func (t *Telemetry) Set() *telemetry.Set {
	if t.set == nil {
		t.set = &telemetry.Set{Log: telemetry.NewLogger(telemetry.LogConfig{Verbose: t.Verbose})}
		if t.TraceOut != "" {
			t.set.Tracer = telemetry.NewTracer()
		}
	}
	return t.set
}

// WriteTrace exports the recorded timeline to the -trace-out path. A
// no-op when the flag was not set; any recording drop is reported on the
// logger so a truncated trace is never mistaken for a complete one.
func (t *Telemetry) WriteTrace() error {
	if t.TraceOut == "" {
		return nil
	}
	tr := t.Set().Trace()
	if err := WriteFile(t.TraceOut, tr.WriteChrome); err != nil {
		return err
	}
	if n := tr.Dropped(); n > 0 {
		t.Set().Logger().Warn("trace buffer overflowed; timeline truncated", "dropped_events", n)
	}
	t.Set().Logger().Info("trace written", "path", t.TraceOut, "events", tr.Events())
	return nil
}

// WriteFile creates the file at path, fills it with write and closes it,
// returning the first error of the three: a file whose Close failed, which
// is where a full disk may show, is not reported as written.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prog is the invoked binary's base name, used as the error prefix.
func prog() string {
	if len(os.Args) == 0 || os.Args[0] == "" {
		return "mess"
	}
	return filepath.Base(os.Args[0])
}

// Fatal prints "<prog>: err" to stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, prog()+":", err)
	os.Exit(1)
}

// Fatalf formats and exits like Fatal.
func Fatalf(format string, args ...any) {
	Fatal(fmt.Errorf(format, args...))
}

// MustPlatform resolves a platform by display name or exits with the list
// of valid names.
func MustPlatform(name string) platform.Spec {
	spec, err := platform.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, prog()+":", err)
		fmt.Fprintln(os.Stderr, "available platforms:")
		for _, p := range platform.All() {
			fmt.Fprintln(os.Stderr, "  "+p.Name)
		}
		os.Exit(1)
	}
	return spec
}

// ParseScale maps the -scale flag convention to an experiment scale.
func ParseScale(name string) (exp.Scale, error) {
	switch name {
	case "quick":
		return exp.Quick, nil
	case "full":
		return exp.Full, nil
	}
	return exp.Quick, fmt.Errorf("unknown scale %q (want quick or full)", name)
}

// MustScale parses the scale or exits.
func MustScale(name string) exp.Scale {
	s, err := ParseScale(name)
	if err != nil {
		Fatal(err)
	}
	return s
}

// Cache carries the flags every cached tool shares: where curve families
// persist (-cache-dir) and how long the run may take (-timeout).
type Cache struct {
	dir     string
	timeout time.Duration
}

// CacheFlags registers -cache-dir and -timeout on the default flag set,
// beside TelemetryFlags. Call before flag.Parse.
func CacheFlags() *Cache {
	c := &Cache{}
	flag.StringVar(&c.dir, "cache-dir", "", "persist curve families under this directory")
	flag.DurationVar(&c.timeout, "timeout", 0, TimeoutUsage)
	return c
}

// Context is the root context of the run: Context(-timeout).
func (c *Cache) Context() (ctx context.Context, stop func()) { return Context(c.timeout) }

// Service builds the characterization service the flags describe: in-memory
// only without -cache-dir, otherwise with a disk tier under it (sharded by
// key prefix, never evicted) that lets later invocations skip
// re-simulation. -cache-dir alone decides where a curve comes from.
//
// tel, when non-nil, instruments the service and the benchmark sweeps it
// runs: both report into tel's tracer and logger, and into its registry
// when the tool set one (see Telemetry.Set).
func (c *Cache) Service(tel *telemetry.Set) *charz.Service {
	var store *charz.DiskStore
	if c.dir != "" {
		var err error
		store, err = charz.NewDiskStore(c.dir)
		if err != nil {
			Fatal(err)
		}
	}
	return charz.New(charz.Config{Store: store, Telemetry: tel})
}

// TimeoutUsage is the shared help text of the -timeout flag.
const TimeoutUsage = "abort the run after this duration (e.g. 90s, 10m; 0 means none); in-flight sweeps stop at the next point boundary"

// Context returns the root context every cached tool runs under: cancelled
// by SIGINT/SIGTERM (first signal cancels and lets the tool drain; a
// second kills the process via the restored default handler) and, when
// timeout is positive, by a deadline. Call stop to release the signal
// watcher on clean exits.
func Context(timeout time.Duration) (ctx context.Context, stop func()) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		sigStop := stop
		stop = func() { cancel(); sigStop() }
	}
	return ctx, stop
}

// PrintStats writes a one-line cache summary for verbose tool output.
func PrintStats(s *charz.Service) {
	st := s.Stats()
	fmt.Printf("characterizations: %d simulated, %d memory hits, %d disk hits, %d remote hits\n",
		st.Runs, st.MemoryHits, st.DiskHits, st.RemoteHits)
}
