// Package charz is the characterization service: the single path from a
// (platform, benchmark options) pair to its bandwidth–latency curve family,
// and from any other deterministic simulation a report prints to its
// output.
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
//     format, and the samples of runs that needed them beside their
//     family, so repeated CLI invocations skip re-simulation entirely;
//   - Config.Remote adds a further tier (any curvestore.Store), consulted
//     after the disk store, promoted into it on a hit and uploaded to after
//     a fresh run; a broken tier reads as a miss. No tool sets it: the
//     tools persist under -cache-dir alone;
//   - CharacterizeAllContext fans a batch of requests out on par.Do,
//     characterizing distinct platforms concurrently.
//
// Results handed to callers are deep copies: experiments relabel and
// resort families freely without corrupting the cache.
//
// # Artifacts
//
// Memo widens the cache from curve families to any deterministic
// simulation output — a workload suite's results, trace replays, a
// profiled run's counter windows. An ArtifactRequest names one by its
// kind and every input (ArtifactKey hashes them under the same charz/vN
// version line as Fingerprint, so one bump invalidates both); it runs the
// same cache loop as a family, counts in the same Stats and persists in
// the same disk store, as JSON in the output's one canonical encoding.
// The in-memory entry keeps the encoded bytes and every caller decodes a
// private copy. A stored file that is not exactly that encoding, under
// its own key and kind, is quarantined and recomputed.
//
// # Contract
//
// Every curve family, and every simulation an experiment report prints,
// flows through one service; `messexp -run all` performs each unique
// characterization and computes each artifact exactly once, and with
// -cache-dir a second invocation simulates nothing. New consumers go
// through the service — tag custom backends with Request.Tag, name
// artifact inputs in ArtifactRequest — rather than calling
// bench.RunContext directly. The sanctioned direct callers are
// wall-clock timing runs (the tablespeed experiment, whose timing is its
// result) and the trace-capturing and workload runs inside a Memo's
// compute. Cache outputs, never rendered rows: a report is rebuilt from
// its artifacts on every call.
//
// The disk store is sharded into 256 subdirectories by key prefix and has
// no size bound: it evicts nothing, and Load is read-only. A whole
// `messexp -run all -scale quick` fills it with 31 families (18,388 B),
// the samples of 5 of them (12,476 B) and 37 artifacts (40,721 B); one
// Full-scale family (fig2 Skylake) is 7,139 B. There is no LRU budget and
// no in-memory Reset: no caller set them. The pins: TestFingerprintGolden
// and TestArtifactKeyStability here, and exp.TestRequestKeysGolden for the
// key of every request and artifact the shipped tools make.
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
	// NeedSamples requires the raw measurement samples. The disk store
	// keeps them beside the family of a run that needed them; a request
	// finding a family without them (on disk or in memory) re-simulates.
	NeedSamples bool
}

// Artifact is a completed characterization. Family is always set; Result
// (the family plus raw samples) is populated only for requests that set
// NeedSamples. Both are private deep copies.
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
	// Store, when set, persists families, their samples and artifacts
	// across processes.
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

// Stats are cumulative service counters. Artifacts (Memo) count in the
// same fields as curve families.
type Stats struct {
	// Runs counts benchmark sweeps and artifact computations actually
	// executed.
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
	// store is Config.Store, the one tier artifacts and samples persist to.
	store *DiskStore

	mu      sync.Mutex
	entries map[Key]*entry

	runs, memHits, diskHits, remoteHits, uncacheable atomic.Int64

	// Telemetry (nil-safe; zero-valued when the service is
	// uninstrumented): the bundle handed to benchmark runs and the tracer
	// row fills record onto. The cache outcomes above are reported by
	// Stats alone; the service registers no metric.
	tel       *telemetry.Set
	fillTrack telemetry.Track
}

// entry is one cache slot: done closes when the first requester finishes,
// after which fam/res/blob/err/src are immutable. claimed hands the true
// source (run or disk) to exactly one caller; everyone else reports a
// memory hit. A family entry sets fam (and res when it holds samples); an
// artifact entry sets blob.
type entry struct {
	done    chan struct{}
	fam     *core.Family  // canonical copy; cloned per caller
	res     *bench.Result // nil when the entry was filled from a family-only file
	blob    []byte        // an artifact's canonical encoding; decoded per caller
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
		store:   cfg.Store,
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
	e, err := s.resolve(ctx, key,
		func(e *entry) { s.fill(ctx, key, e, req) },
		// An entry satisfied from disk without samples cannot serve a
		// caller that needs them: it is retired and simulated (once) for
		// the samples. Not a cache hit.
		func(e *entry) bool { return !req.NeedSamples || e.res != nil })
	if err != nil {
		return nil, err
	}
	return entryArtifact(key, e, req.NeedSamples), nil
}

// resolve is the cache loop every request runs, curve family or artifact:
// the first requester of key owns a new entry and fills it; everyone else
// waits for that fill and shares it. usable (nil: always) reports whether
// a filled entry can serve this caller; one that cannot is retired and
// filled again.
func (s *Service) resolve(ctx context.Context, key Key, fill func(*entry), usable func(*entry) bool) (*entry, error) {
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
			fill(e)
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
		if usable != nil && !usable(e) {
			s.dropIf(key, e)
			continue
		}
		if waited {
			s.memHits.Add(1)
		}
		return e, nil
	}
}

// ctxErr reports whether err is (or wraps) a context cancellation.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fill executes the cache miss path for the entry it owns and publishes
// the outcome by closing done.
func (s *Service) fill(ctx context.Context, key Key, e *entry, req Request) {
	defer s.traceFill(e, "characterize "+req.Spec.Name, "spec", req.Spec.Name)()
	defer close(e.done)
	switch {
	case req.NeedSamples && s.store != nil:
		// Samples persist on disk alone, beside their family: both must
		// load, or the request simulates. A family-only file still does.
		fam, ok, _ := s.store.Load(ctx, key)
		if ok {
			if samples, ok := s.store.loadSamples(ctx, key, req.Options); ok {
				s.diskHits.Add(1)
				e.fam, e.src = fam, SourceDisk
				e.res = &bench.Result{Spec: req.Spec, Family: fam, Samples: samples}
				return
			}
		}
	case s.tiered != nil && !req.NeedSamples:
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
		saveCtx := context.WithoutCancel(ctx)
		_ = s.tiered.Save(saveCtx, key, res.Family)
		if req.NeedSamples && s.store != nil {
			_ = s.store.saveSamples(saveCtx, key, res.Samples)
		}
	}
}

// traceFill opens a fill's span; the returned func, deferred before done
// closes, ends it with the fill's outcome and logs the fill under the
// given attribute.
func (s *Service) traceFill(e *entry, span, attr, val string) func() {
	start := time.Now()
	sp := s.tel.Trace().Begin(s.fillTrack, span)
	return func() {
		outcome := "error"
		if e.err == nil {
			outcome = e.src.String()
		}
		sp.End(telemetry.String("source", outcome))
		s.tel.Logger().Debug("charz fill", attr, val, "source", outcome,
			"elapsed", time.Since(start).Round(time.Millisecond))
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
