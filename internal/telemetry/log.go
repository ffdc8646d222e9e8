package telemetry

import (
	"io"
	"log/slog"
	"os"
	"sync"
)

// Logger is the structured logger of the stack — log/slog, so every
// progress line is one atomic Write carrying key=value fields instead of
// an interleavable fmt.Fprintf. Subsystems take a *Logger and log with
// fields (experiment id, curve key, tier, duration); the CLI layer picks
// the handler (text for humans, JSON for log collectors) from the
// shared -log-json / -v flags.
type Logger = slog.Logger

// LogConfig parameterizes NewLogger. The zero value is a text logger to
// stderr at Info level.
type LogConfig struct {
	// JSON selects the slog JSON handler (one object per line) instead of
	// the human-readable text handler.
	JSON bool
	// Verbose lowers the level to Debug — per-characterization and
	// per-request detail instead of lifecycle milestones.
	Verbose bool
	// Output overrides the destination (default os.Stderr).
	Output io.Writer
}

// NewLogger builds a logger. Each record is rendered into one buffer and
// written with a single Write call, so concurrent characterizations can
// never interleave partial lines.
func NewLogger(cfg LogConfig) *Logger {
	out := cfg.Output
	if out == nil {
		out = os.Stderr
	}
	level := slog.LevelInfo
	if cfg.Verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if cfg.JSON {
		h = slog.NewJSONHandler(out, opts)
	} else {
		h = slog.NewTextHandler(out, opts)
	}
	return slog.New(h)
}

var (
	nopOnce sync.Once
	nop     *Logger
)

// NopLogger returns a logger that discards everything — the default for
// library code whose caller attached no telemetry.
func NopLogger() *Logger {
	nopOnce.Do(func() {
		nop = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	})
	return nop
}

// Set is the observability bundle threaded through the stack: metrics,
// tracing and logging as one optional value. Every field may be nil, and
// a nil *Set is valid everywhere — the accessors below fold both levels
// of absence into the metric types' own nil-safety, so call sites read
//
//	tel.Registry().Counter(...)   // no-op counter when uninstrumented
//	tel.Logger().Debug(...)       // discarded when uninstrumented
//	tel.Trace().Span(...)         // no-op when uninstrumented
//
// with no conditionals.
type Set struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *Logger
}

// Registry returns the bundle's registry (nil when absent — Registry
// methods are nil-safe).
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// Trace returns the bundle's tracer (nil when absent — Tracer methods
// are nil-safe).
func (s *Set) Trace() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// Logger returns the bundle's logger, never nil (a nop logger when
// absent).
func (s *Set) Logger() *Logger {
	if s == nil || s.Log == nil {
		return NopLogger()
	}
	return s.Log
}
