// Package charz is the characterization service: the single path from a
// (platform, benchmark options) pair to its bandwidth–latency curve family.
//
// Every component of the framework — the experiment registry, the CLI
// tools, the public facade — consumes curve families, and producing one
// means running the full Mess benchmark sweep, the hottest path in the
// repository. The service makes that path shared rather than ad hoc:
//
//   - requests are content-addressed: a SHA-256 fingerprint of the
//     canonical spec + normalized options (see Fingerprint) identifies a
//     characterization, so two callers asking for the same curves hit the
//     same cache slot no matter which layer they call from;
//   - an in-memory cache with singleflight deduplication guarantees that
//     concurrent requests for one key run exactly one simulation — the
//     rest block on the in-flight run and share its result;
//   - an optional on-disk store persists families in the release CSV
//     format, so repeated CLI invocations skip re-simulation entirely;
//   - Config.Remote adds a further tier (any curvestore.Store), consulted
//     after the disk store, promoted into it on a hit and uploaded to after
//     a fresh run; a broken tier reads as a miss. No tool sets it: the
//     tools persist under -cache-dir alone;
//   - CharacterizeAllContext fans a batch of requests out on par.Do,
//     characterizing distinct platforms concurrently.
//
// Results handed to callers are deep copies: experiments relabel and
// resort families freely without corrupting the cache.
package charz

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

// Source reports where an artifact came from.
type Source int

const (
	// SourceRun: a fresh simulation ran for this request.
	SourceRun Source = iota
	// SourceMemory: served from the in-memory cache (including waiting on
	// an in-flight run for the same key).
	SourceMemory
	// SourceDisk: loaded from the on-disk store without simulating.
	SourceDisk
	// SourceRemote: fetched from Config.Remote without simulating (and
	// promoted into the local disk store, when present).
	SourceRemote
)

func (s Source) String() string {
	switch s {
	case SourceRun:
		return "run"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceRemote:
		return "remote"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Request names one characterization.
type Request struct {
	// Spec is the platform to characterize.
	Spec platform.Spec
	// Options configure the benchmark sweep. Parallelism is honoured for
	// the run but excluded from the cache key; Backend is honoured but
	// must be identified by Tag to be cacheable.
	Options bench.Options
	// Tag disambiguates requests whose Options carry a custom Backend
	// (e.g. "model:ramulator2"). A request with a Backend and no Tag is
	// uncacheable and always simulates.
	Tag string
	// NeedSamples requires the raw measurement samples, which the disk
	// store does not persist: the request skips disk loads and upgrades a
	// family-only memory entry by re-simulating.
	NeedSamples bool
}

// Artifact is a completed characterization. Family is always set; Result
// (the family plus raw samples) is populated only for requests that set
// NeedSamples and could not be satisfied from the on-disk store. Both are
// private deep copies.
type Artifact struct {
	Key    Key
	Family *core.Family
	Result *bench.Result
	Source Source
}

// RunFunc executes one benchmark sweep. The default is bench.RunContext;
// tests substitute counting or synthetic runners. A cancelled context must
// make the runner return promptly with ctx.Err() (wrapped or bare).
type RunFunc func(context.Context, platform.Spec, bench.Options) (*bench.Result, error)

// Config parameterizes a Service.
type Config struct {
	// Store, when set, persists families across processes.
	Store *DiskStore
	// Remote, when set, is the outermost tier: consulted after Store,
	// written back into Store on a hit (promotion), and uploaded to after
	// a fresh run. All traffic to it is fail-soft: a broken remote tier
	// degrades the service to its local tiers and never fails a
	// characterization. Only tests and the benchmark's curve-tiers
	// workload set it.
	Remote curvestore.Store
	// Run overrides the benchmark runner (test seam). Default:
	// bench.RunContext.
	Run RunFunc
	// Telemetry, when set, observes the service: request counters by
	// outcome source on its registry, fill spans on its tracer, per-fill
	// debug lines on its logger. It is also handed down to every benchmark
	// sweep the service runs. Purely observational — results and cache
	// keys are unaffected.
	Telemetry *telemetry.Set
}

// Stats are cumulative service counters.
type Stats struct {
	// Runs counts benchmark sweeps actually executed.
	Runs int64
	// MemoryHits counts requests served from the in-memory cache,
	// including requests that waited on an in-flight run for their key.
	MemoryHits int64
	// DiskHits counts requests served from the on-disk store.
	DiskHits int64
	// RemoteHits counts requests served from Config.Remote.
	RemoteHits int64
	// Uncacheable counts requests that bypassed the cache entirely
	// (custom Backend without a Tag).
	Uncacheable int64
}

// Service is the concurrency-safe characterization cache. The zero value
// is not usable; construct with New.
type Service struct {
	run RunFunc

	// tiered composes the persistent tiers in lookup order (disk, then
	// remote), with write-back promotion on hit; tierSrc maps a hit's tier
	// index back to its Source for stats and artifact labelling. nil when
	// the service is memory-only.
	tiered  *curvestore.Tiered
	tierSrc []Source

	mu      sync.Mutex
	entries map[Key]*entry

	runs, memHits, diskHits, remoteHits, uncacheable atomic.Int64

	// Telemetry (all nil-safe; zero-valued when the service is
	// uninstrumented): the bundle handed to benchmark runs, the fill
	// duration histogram, and the tracer row fills record onto.
	tel       *telemetry.Set
	fillDur   *telemetry.Histogram
	fillTrack telemetry.Track
}

// entry is one cache slot: done closes when the first requester finishes,
// after which fam/res/err/src are immutable. claimed hands the true source
// (run or disk) to exactly one caller; everyone else reports a memory hit.
type entry struct {
	done    chan struct{}
	fam     *core.Family  // canonical copy; cloned per caller
	res     *bench.Result // nil when the entry was filled from disk
	err     error
	src     Source // how the filling requester obtained it
	claimed atomic.Bool
}

// New builds a Service.
func New(cfg Config) *Service {
	if cfg.Run == nil {
		cfg.Run = bench.RunContext
	}
	s := &Service{
		run:     cfg.Run,
		entries: map[Key]*entry{},
	}
	var tiers []curvestore.Store
	if cfg.Store != nil {
		tiers = append(tiers, cfg.Store)
		s.tierSrc = append(s.tierSrc, SourceDisk)
	}
	if cfg.Remote != nil {
		tiers = append(tiers, cfg.Remote)
		s.tierSrc = append(s.tierSrc, SourceRemote)
	}
	if len(tiers) > 0 {
		s.tiered = curvestore.NewTiered(tiers...)
	}
	s.tel = cfg.Telemetry
	// Registration is read-time re-export of the existing atomic counters
	// — the hot paths keep writing the same atomics they always did. All
	// of this no-ops on a nil registry.
	reg := s.tel.Registry()
	counterAsFunc := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc(`mess_charz_requests_total{source="run"}`, counterAsFunc(&s.runs))
	reg.CounterFunc(`mess_charz_requests_total{source="memory"}`, counterAsFunc(&s.memHits))
	reg.CounterFunc(`mess_charz_requests_total{source="disk"}`, counterAsFunc(&s.diskHits))
	reg.CounterFunc(`mess_charz_requests_total{source="remote"}`, counterAsFunc(&s.remoteHits))
	reg.CounterFunc(`mess_charz_requests_total{source="uncacheable"}`, counterAsFunc(&s.uncacheable))
	s.fillDur = reg.Histogram("mess_charz_fill_seconds")
	s.fillTrack = s.tel.Trace().NewTrack("charz", "fill")
	return s
}

// Telemetry returns the service's observability bundle (nil when the
// service was built without one) — the handle layers above the service
// (experiments, the facade) use to share one registry and tracer.
func (s *Service) Telemetry() *telemetry.Set { return s.tel }

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Runs:        s.runs.Load(),
		MemoryHits:  s.memHits.Load(),
		DiskHits:    s.diskHits.Load(),
		RemoteHits:  s.remoteHits.Load(),
		Uncacheable: s.uncacheable.Load(),
	}
}

// Characterize returns the request's curve family, running the benchmark
// at most once per key per process (and, with a disk store, at most once
// ever for family-only requests). Safe for concurrent use. It is
// CharacterizeContext with a background context — the entry point for
// callers with no deadline to propagate.
func (s *Service) Characterize(req Request) (*Artifact, error) {
	return s.CharacterizeContext(context.Background(), req)
}

// CharacterizeContext is Characterize under a caller-supplied context.
// Cancellation propagates into every blocking stage — the tier lookups,
// the benchmark sweep, and waiting on another caller's in-flight run —
// and returns ctx.Err() promptly. A waiter whose filler was cancelled
// retries the key itself (the cancelled filler's entry is dropped), so one
// caller's deadline never poisons another caller's request.
func (s *Service) CharacterizeContext(ctx context.Context, req Request) (*Artifact, error) {
	if req.Options.Backend != nil && req.Tag == "" {
		// A function-valued backend has no stable identity: simulate
		// without touching the cache rather than risk aliasing.
		s.uncacheable.Add(1)
		res, err := s.runOnce(ctx, req)
		if err != nil {
			return nil, err
		}
		return &Artifact{Family: res.Family, Result: res, Source: SourceRun}, nil
	}

	key := Fingerprint(req)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		e, ok := s.entries[key]
		waited := ok
		if !ok {
			e = &entry{done: make(chan struct{})}
			s.entries[key] = e
			s.mu.Unlock()
			s.fill(ctx, key, e, req)
		} else {
			s.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				// Leave the entry alone: the filler is still running and
				// will publish for the callers that stayed.
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			// Errors are not cached: drop the entry so a later request
			// can retry, then report the failure to this caller.
			s.dropIf(key, e)
			if waited && ctxErr(e.err) && ctx.Err() == nil {
				// The filler was cancelled, but this waiter was not: the
				// entry is gone, so loop and fill it ourselves.
				continue
			}
			return nil, e.err
		}
		if req.NeedSamples && e.res == nil {
			// The entry was satisfied from disk but this caller needs the
			// raw samples: retire the family-only entry and loop to
			// simulate (once) for the samples. Not a cache hit.
			s.dropIf(key, e)
			continue
		}
		if waited {
			s.memHits.Add(1)
		}
		return entryArtifact(key, e, req.NeedSamples), nil
	}
}

// ctxErr reports whether err is (or wraps) a context cancellation.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Reset drops every completed and in-flight entry from the in-memory
// cache (in-flight runs finish for their current waiters but will not be
// re-served). Long-lived processes characterizing many distinct
// configurations use this as the eviction escape hatch; the disk store,
// being content-addressed, needs no invalidation.
func (s *Service) Reset() {
	s.mu.Lock()
	s.entries = map[Key]*entry{}
	s.mu.Unlock()
}

// fill executes the cache miss path for the entry it owns and publishes
// the outcome by closing done.
func (s *Service) fill(ctx context.Context, key Key, e *entry, req Request) {
	start := time.Now()
	sp := s.tel.Trace().Begin(s.fillTrack, "characterize "+req.Spec.Name)
	defer func() {
		d := time.Since(start)
		s.fillDur.Observe(d.Seconds())
		outcome := "error"
		if e.err == nil {
			outcome = e.src.String()
		}
		sp.End(telemetry.String("source", outcome))
		s.tel.Logger().Debug("charz fill",
			"spec", req.Spec.Name, "source", outcome, "elapsed", d.Round(time.Millisecond))
	}()
	defer close(e.done)
	if s.tiered != nil && !req.NeedSamples {
		// Disk, then remote, with write-back promotion on a remote hit.
		// Tier failures (corrupt cache file, broken remote tier) read as
		// misses and fall through to simulation — fail-soft.
		fam, tier, _ := s.tiered.LoadTier(ctx, key)
		if tier >= 0 {
			src := s.tierSrc[tier]
			switch src {
			case SourceDisk:
				s.diskHits.Add(1)
			case SourceRemote:
				s.remoteHits.Add(1)
			}
			e.fam, e.src = fam, src
			return
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancelled between the tier walk and the sweep: don't start a
		// simulation nobody is waiting for.
		e.err = err
		return
	}
	res, err := s.runOnce(ctx, req)
	if err != nil {
		e.err = err
		return
	}
	e.fam, e.res, e.src = res.Family, res, SourceRun
	if s.tiered != nil {
		// Persistence is best-effort on every tier: a read-only cache
		// directory or a broken remote tier must not fail the
		// characterization itself. A completed sweep is saved even if the
		// caller's context has since been cancelled (WithoutCancel):
		// throwing away minutes of finished simulation because the caller
		// stopped waiting would force the next run to pay for it again.
		_ = s.tiered.Save(context.WithoutCancel(ctx), key, res.Family)
	}
}

func (s *Service) runOnce(ctx context.Context, req Request) (*bench.Result, error) {
	s.runs.Add(1)
	if s.tel != nil && req.Options.Telemetry == nil {
		// Hand the sweep the service's bundle so per-point spans and sim
		// counters land in the same trace and registry. Execution-only:
		// Normalized clears it, so cache keys are unchanged.
		req.Options.Telemetry = s.tel
	}
	return s.run(ctx, req.Spec, req.Options)
}

// dropIf removes the entry from the cache if it is still the resident one.
func (s *Service) dropIf(key Key, e *entry) {
	s.mu.Lock()
	if s.entries[key] == e {
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// entryArtifact clones the entry for one caller. Exactly one caller (the
// first to claim) reports the true SourceRun/SourceDisk; everyone after
// sees SourceMemory. The raw-sample Result is copied only for callers
// that asked for it — family-only hits (the common case in experiment
// sweeps) skip the O(samples) copy.
func entryArtifact(key Key, e *entry, needSamples bool) *Artifact {
	src := SourceMemory
	if e.claimed.CompareAndSwap(false, true) {
		src = e.src
	}
	art := &Artifact{Key: key, Family: e.fam.Clone(), Source: src}
	if needSamples && e.res != nil {
		res := *e.res
		res.Family = art.Family
		res.Samples = append([]bench.Sample(nil), e.res.Samples...)
		art.Result = &res
	}
	return art
}

// CharacterizeAllContext resolves a batch of requests on par.Do
// (GOMAXPROCS workers). Artifacts are returned in request order; a nil slot
// marks a failed request, and the joined error reports every failure — one
// failure does not stop the batch. Duplicate keys inside one batch still
// simulate only once: the pool fans out, the singleflight layer fans back
// in. Cancellation drains the pool promptly: requests not yet started fail
// with ctx.Err() without simulating, and in-flight ones return as soon as
// their own blocking stage observes the cancellation.
func (s *Service) CharacterizeAllContext(ctx context.Context, reqs []Request) ([]*Artifact, error) {
	arts := make([]*Artifact, len(reqs))
	errs := make([]error, len(reqs))
	// Jobs never fail par.Do: a failed request is recorded, and the rest run.
	undispatched := par.Do(ctx, len(reqs), func(i int) error {
		arts[i], errs[i] = s.CharacterizeContext(ctx, reqs[i])
		return nil
	})
	for i := range reqs {
		if arts[i] == nil && errs[i] == nil {
			errs[i] = undispatched // par.Do dispatched no job past ctx's end
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("charz: %s: %w", reqs[i].Spec.Name, errs[i])
		}
	}
	return arts, errors.Join(errs...)
}
