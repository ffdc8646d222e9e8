// Package faultz is the deterministic fault-injection layer behind the
// chaos tests: a seeded, programmable plan of faults (errors, added
// latency, hang-until-cancel, corrupt bytes, truncated bodies,
// fail-then-recover schedules) that can be interposed at two seams — the
// curvestore.Store interface (NewStore) and the HTTP transport under the
// curve-store client (NewTransport).
//
// It is chaos-test infrastructure: no binary wires it in. The point of the
// package is to make the repository's fail-soft contract testable instead
// of asserted: "losing every cache can only cost a re-simulation, never an
// error" is only trustworthy if something actually injects a slow, flaky,
// corrupt or hung dependency and checks that the callers above ride
// through it. The chaos tests (internal/charz) do exactly that, with plans
// seeded so a failure reproduces from its seed.
//
// # Determinism
//
// A Plan draws its fault sequence from a splitmix64 stream seeded by
// Config.Seed: the k-th draw is a pure function of (seed, k). Concurrent
// callers interleave their draws nondeterministically, but the multiset of
// faults injected over n operations is fixed — which is the right contract
// for chaos testing, where the invariants must hold under every
// interleaving of a known fault load.
package faultz

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind classifies one injected fault.
type Kind int

const (
	// None: the operation proceeds untouched.
	None Kind = iota
	// Error fails the operation with ErrInjected (a transport error at the
	// HTTP seam) — the flaky-dependency case.
	Error
	// Latency delays the operation (context-interruptible), then lets it
	// proceed — the slow-dependency case.
	Latency
	// Hang blocks the operation until its context is cancelled — the
	// wedged-dependency case, and the one that proves deadlines propagate.
	Hang
	// Corrupt lets the operation proceed but mangles its payload — the
	// bit-rot / broken-intermediary case. At the Store seam a corrupt
	// entry is present-but-unreadable (an error, which tier composition
	// treats as a miss); at the HTTP seam response bodies are bit-flipped.
	Corrupt
	// Truncate is Corrupt's short-read sibling: payloads are cut off
	// mid-body.
	Truncate

	numKinds
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the error carried by injected Error faults (and by
// corrupt/truncated Store reads). Callers composing fail-soft tiers treat
// it like any other tier error: a miss.
var ErrInjected = errors.New("faultz: injected fault")

// Fault is one drawn fault.
type Fault struct {
	Kind Kind
	// Delay is the added latency for Latency faults.
	Delay time.Duration
}

// Config programs a Plan. The zero value injects nothing.
type Config struct {
	// Seed fixes the probabilistic draw stream. Two plans with equal
	// configs inject the same fault sequence.
	Seed uint64
	// FailFirst makes the first N operations fail with Error before any
	// other rule applies — the fail-then-recover schedule (a dependency
	// that is down when the caller starts and comes back mid-run).
	FailFirst int
	// Script, when non-empty, is consumed one entry per operation (after
	// FailFirst is exhausted) before probabilistic drawing starts —
	// exact-schedule tests write the whole scenario here.
	Script []Fault
	// Per-operation probabilities in [0, 1], applied in this order as one
	// cumulative draw; their sum must not exceed 1.
	ErrorP, HangP, CorruptP, TruncateP, LatencyP float64
	// Latency is the fixed delay injected by Latency faults.
	Latency time.Duration
}

// Stats counts what a plan actually injected, so tests can assert the
// hostile schedule really fired instead of vacuously passing.
type Stats struct {
	Ops       int64
	Errors    int64
	Delays    int64
	Hangs     int64
	Corrupts  int64
	Truncates int64
}

// Injected reports the total number of non-None faults.
func (s Stats) Injected() int64 {
	return s.Errors + s.Delays + s.Hangs + s.Corrupts + s.Truncates
}

// Plan is a concurrency-safe fault source shared by every wrapper built
// over it: each intercepted operation consumes one draw.
type Plan struct {
	mu     sync.Mutex
	cfg    Config
	rng    uint64
	script int // next Script entry
	stats  Stats
}

// NewPlan builds a plan. The config is validated loudly: a chaos harness
// with a silently-impossible schedule tests nothing.
func NewPlan(cfg Config) (*Plan, error) {
	sum := cfg.ErrorP + cfg.HangP + cfg.CorruptP + cfg.TruncateP + cfg.LatencyP
	for _, p := range []float64{cfg.ErrorP, cfg.HangP, cfg.CorruptP, cfg.TruncateP, cfg.LatencyP} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("faultz: probability %v outside [0, 1]", p)
		}
	}
	if sum > 1 {
		return nil, fmt.Errorf("faultz: fault probabilities sum to %v > 1", sum)
	}
	if cfg.LatencyP > 0 && cfg.Latency <= 0 {
		return nil, errors.New("faultz: LatencyP set without a Latency duration")
	}
	return &Plan{cfg: cfg, rng: cfg.Seed}, nil
}

// MustPlan is NewPlan for hand-written test configs.
func MustPlan(cfg Config) *Plan {
	p, err := NewPlan(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// splitmix64 advances the draw stream — the same generator the sampled
// trace replay uses for its seeded k-means, chosen for identical output on
// every platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next draws the fault for the next operation.
func (p *Plan) Next() Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Ops++
	var f Fault
	switch {
	case p.stats.Ops <= int64(p.cfg.FailFirst):
		f = Fault{Kind: Error}
	case p.script < len(p.cfg.Script):
		f = p.cfg.Script[p.script]
		p.script++
	default:
		p.rng = splitmix64(p.rng)
		// 53 uniform bits, like math/rand's Float64.
		u := float64(p.rng>>11) / (1 << 53)
		switch {
		case u < p.cfg.ErrorP:
			f = Fault{Kind: Error}
		case u < p.cfg.ErrorP+p.cfg.HangP:
			f = Fault{Kind: Hang}
		case u < p.cfg.ErrorP+p.cfg.HangP+p.cfg.CorruptP:
			f = Fault{Kind: Corrupt}
		case u < p.cfg.ErrorP+p.cfg.HangP+p.cfg.CorruptP+p.cfg.TruncateP:
			f = Fault{Kind: Truncate}
		case u < p.cfg.ErrorP+p.cfg.HangP+p.cfg.CorruptP+p.cfg.TruncateP+p.cfg.LatencyP:
			f = Fault{Kind: Latency, Delay: p.cfg.Latency}
		}
	}
	if f.Kind == Latency && f.Delay == 0 {
		f.Delay = p.cfg.Latency
	}
	switch f.Kind {
	case Error:
		p.stats.Errors++
	case Latency:
		p.stats.Delays++
	case Hang:
		p.stats.Hangs++
	case Corrupt:
		p.stats.Corrupts++
	case Truncate:
		p.stats.Truncates++
	}
	return f
}

// Stats snapshots the injection counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Sleep blocks for d or until ctx is done, whichever comes first — the
// context-interruptible sleep every injected latency rides on.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
