package charz

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// bg is the do-not-care context for calls whose cancellation behaviour is
// not under test.
var bg = context.Background()

// fakeRun returns a RunFunc that fabricates a small deterministic family
// and counts invocations.
func fakeRun(calls *atomic.Int64, delay time.Duration) RunFunc {
	return func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		fam := &core.Family{
			Label:         spec.Name,
			TheoreticalBW: 100,
			Curves: []core.Curve{
				{ReadRatio: 0.5, Points: []core.Point{{BW: 1, Latency: 95}, {BW: 60, Latency: 260}}},
				{ReadRatio: 1.0, Points: []core.Point{{BW: 1, Latency: 90}, {BW: 80, Latency: 200}}},
			},
		}
		return &bench.Result{
			Spec:    spec,
			Family:  fam,
			Samples: []bench.Sample{{BWGBs: 80, LatNs: 200, RdRatio: 1}},
		}, nil
	}
}

func testSpec(name string) platform.Spec {
	s := platform.Skylake()
	s.Name = name
	return s
}

func TestSingleflightDedup(t *testing.T) {
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 20*time.Millisecond)})
	req := Request{Spec: testSpec("dedup"), Options: bench.QuickOptions()}

	const n = 32
	arts := make([]*Artifact, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, err := svc.Characterize(req)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("bench ran %d times for one key under %d concurrent requests, want exactly 1", got, n)
	}
	stats := svc.Stats()
	if stats.Runs != 1 || stats.MemoryHits != n-1 {
		t.Fatalf("stats = %+v, want 1 run and %d memory hits", stats, n-1)
	}
	runs := 0
	for _, art := range arts {
		if art.Family == nil || len(art.Family.Curves) != 2 {
			t.Fatalf("artifact missing family: %+v", art)
		}
		if art.Source == SourceRun {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("%d artifacts claim SourceRun, want exactly 1", runs)
	}
}

func TestArtifactsAreIsolatedCopies(t *testing.T) {
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0)})
	req := Request{Spec: testSpec("isolated"), Options: bench.QuickOptions()}

	a, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	a.Family.Label = "mutated by caller"
	a.Family.Curves[0].Points[0].Latency = -1

	b, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if b.Family.Label != "isolated" {
		t.Fatalf("cache corrupted by caller relabel: %q", b.Family.Label)
	}
	if b.Family.Curves[0].Points[0].Latency != 95 {
		t.Fatalf("cache corrupted by caller point mutation: %+v", b.Family.Curves[0].Points[0])
	}
	if calls.Load() != 1 {
		t.Fatalf("second request re-ran the benchmark (%d calls)", calls.Load())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0), Store: store})
	req := Request{Spec: testSpec("disk"), Options: bench.QuickOptions()}

	first, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceRun || calls.Load() != 1 {
		t.Fatalf("first request: source=%v calls=%d", first.Source, calls.Load())
	}

	// A fresh service sharing the directory models a second CLI invocation.
	var calls2 atomic.Int64
	svc2 := New(Config{Run: fakeRun(&calls2, 0), Store: store})
	second, err := svc2.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceDisk {
		t.Fatalf("second process source = %v, want disk", second.Source)
	}
	if calls2.Load() != 0 {
		t.Fatalf("second process re-simulated (%d calls)", calls2.Load())
	}
	if second.Result != nil {
		t.Fatal("disk-served artifact fabricated raw samples")
	}
	if second.Family.Label != first.Family.Label ||
		len(second.Family.Curves) != len(first.Family.Curves) {
		t.Fatalf("family mangled in CSV round trip: %+v vs %+v", second.Family, first.Family)
	}
	for i, c := range second.Family.Curves {
		want := first.Family.Curves[i]
		if c.ReadRatio != want.ReadRatio || len(c.Points) != len(want.Points) {
			t.Fatalf("curve %d mangled: %+v vs %+v", i, c, want)
		}
	}
}

func TestNeedSamplesUpgradesDiskEntry(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Spec: testSpec("upgrade"), Options: bench.QuickOptions()}
	if err := store.Save(bg, Fingerprint(req), &core.Family{
		Label: "upgrade", TheoreticalBW: 100,
		Curves: []core.Curve{{ReadRatio: 1, Points: []core.Point{{BW: 1, Latency: 90}, {BW: 50, Latency: 150}}}},
	}); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0), Store: store})

	famOnly, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if famOnly.Source != SourceDisk || calls.Load() != 0 {
		t.Fatalf("family-only request: source=%v calls=%d, want disk hit", famOnly.Source, calls.Load())
	}

	req.NeedSamples = true
	withSamples, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if withSamples.Result == nil || len(withSamples.Result.Samples) == 0 {
		t.Fatal("NeedSamples request returned no raw samples")
	}
	if calls.Load() != 1 {
		t.Fatalf("samples upgrade ran %d simulations, want 1", calls.Load())
	}

	// The upgraded entry now serves both request shapes from memory.
	again, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceMemory || calls.Load() != 1 {
		t.Fatalf("post-upgrade request: source=%v calls=%d", again.Source, calls.Load())
	}

	// Samples on disk: a run that needed samples saves them beside its
	// family, and a fresh service serves the next such request from disk.
	req = Request{Spec: testSpec("upgrade-samples"), Options: bench.QuickOptions(), NeedSamples: true}
	cold, err := New(Config{Run: gridRun(&calls), Store: store}).Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Run: gridRun(&calls), Store: store})
	warm, err := fresh.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != SourceDisk || calls.Load() != 2 {
		t.Fatalf("samples-on-disk request: source=%v calls=%d, want a disk hit", warm.Source, calls.Load())
	}
	if !reflect.DeepEqual(warm.Result.Samples, cold.Result.Samples) || warm.Result.Spec != req.Spec {
		t.Fatal("samples served from disk differ from the run's")
	}
	if st := fresh.Stats(); st.Runs != 0 || st.DiskHits != 1 {
		t.Fatalf("samples-on-disk stats = %+v, want one disk hit", st)
	}
}

func TestCharacterizeAllBoundedConcurrency(t *testing.T) {
	var calls atomic.Int64
	var inFlight, maxInFlight atomic.Int64
	base := fakeRun(&calls, 0)
	run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		cur := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if cur <= max || maxInFlight.CompareAndSwap(max, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		defer inFlight.Add(-1)
		return base(ctx, spec, opt)
	}

	// The pool is sized by GOMAXPROCS; pin it so the bound is the same on
	// every host.
	const workers = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	svc := New(Config{Run: run})
	var reqs []Request
	for _, name := range []string{"p1", "p2", "p3", "p4", "p5", "p6", "p2", "p4"} {
		reqs = append(reqs, Request{Spec: testSpec(name), Options: bench.QuickOptions()})
	}
	arts, err := svc.CharacterizeAllContext(bg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, art := range arts {
		if art == nil || art.Family == nil {
			t.Fatalf("artifact %d missing", i)
		}
		if art.Family.Label != reqs[i].Spec.Name {
			t.Fatalf("artifact %d has family %q, want %q", i, art.Family.Label, reqs[i].Spec.Name)
		}
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("ran %d simulations for 6 unique keys (8 requests), want 6", got)
	}
	if max := maxInFlight.Load(); max > workers {
		t.Fatalf("observed %d concurrent runs, pool bound is %d", max, workers)
	}
	if max := maxInFlight.Load(); max < 2 {
		t.Fatalf("observed %d concurrent runs — fan-out not actually parallel", max)
	}
}

func TestCharacterizeAllReportsFailures(t *testing.T) {
	boom := errors.New("boom")
	run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		if spec.Name == "bad" {
			return nil, boom
		}
		var calls atomic.Int64
		return fakeRun(&calls, 0)(ctx, spec, opt)
	}
	// One worker runs the batch in order, so the requests after the failure
	// run only if a failure does not stop the batch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc := New(Config{Run: run})
	arts, err := svc.CharacterizeAllContext(bg, []Request{
		{Spec: testSpec("good"), Options: bench.QuickOptions()},
		{Spec: testSpec("bad"), Options: bench.QuickOptions()},
		{Spec: testSpec("after"), Options: bench.QuickOptions()},
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if arts[0] == nil || arts[1] != nil || arts[2] == nil {
		t.Fatalf("artifact slots wrong: %v", arts)
	}
}

// TestCharacterizeAllCancelled pins what a batch does when its context ends
// mid-way: the requests not yet started fail with ctx.Err(), each named in
// the joined error, and never simulate; the finished one keeps its slot.
func TestCharacterizeAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	base := fakeRun(&calls, 0)
	run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		cancel() // the first simulation ends the batch's context
		return base(ctx, spec, opt)
	}
	// One worker: the batch runs in order, so the first request is the
	// only one started before the cancellation.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc := New(Config{Run: run})
	names := []string{"first", "second", "third", "fourth"}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Spec: testSpec(name), Options: bench.QuickOptions()})
	}
	arts, err := svc.CharacterizeAllContext(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d simulations ran, want 1: requests not yet started must not simulate", got)
	}
	if arts[0] == nil {
		t.Fatal("the request that finished before the cancellation lost its artifact")
	}
	for i, name := range names[1:] {
		if arts[i+1] != nil {
			t.Errorf("cancelled request %s has an artifact", name)
		}
		if !strings.Contains(err.Error(), "charz: "+name+": ") {
			t.Errorf("joined error does not name %s: %v", name, err)
		}
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := true
	run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		calls.Add(1)
		if fail {
			return nil, errors.New("transient")
		}
		var c atomic.Int64
		return fakeRun(&c, 0)(ctx, spec, opt)
	}
	svc := New(Config{Run: run})
	req := Request{Spec: testSpec("retry"), Options: bench.QuickOptions()}
	if _, err := svc.Characterize(req); err == nil {
		t.Fatal("first request should fail")
	}
	fail = false
	art, err := svc.Characterize(req)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if art.Source != SourceRun || calls.Load() != 2 {
		t.Fatalf("retry: source=%v calls=%d, want a fresh run", art.Source, calls.Load())
	}
}

func TestUntaggedBackendBypassesCache(t *testing.T) {
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0)})
	opt := bench.QuickOptions()
	opt.Backend = func(eng *sim.Engine) mem.Backend { return nil }
	req := Request{Spec: testSpec("untagged"), Options: opt}
	for i := 0; i < 2; i++ {
		if _, err := svc.Characterize(req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("untagged backend requests ran %d times, want 2 (no caching without identity)", calls.Load())
	}
	if s := svc.Stats(); s.Uncacheable != 2 {
		t.Fatalf("stats = %+v, want 2 uncacheable", s)
	}

	// The same backend with a tag is cacheable.
	req.Tag = "model:test"
	for i := 0; i < 2; i++ {
		if _, err := svc.Characterize(req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("tagged backend requests ran %d total, want 3", calls.Load())
	}
}

func TestFingerprintStability(t *testing.T) {
	base := func() Request {
		return Request{Spec: testSpec("fp"), Options: bench.QuickOptions()}
	}
	k := Fingerprint(base())
	if k != Fingerprint(base()) {
		t.Fatal("identical requests fingerprint differently")
	}

	// Execution-only knobs must not move the key.
	same := base()
	same.Options.Parallelism = 7
	if Fingerprint(same) != k {
		t.Fatal("Parallelism leaked into the fingerprint")
	}
	// Shards is ignored by the runner, so it must not split cache entries.
	sharded := base()
	sharded.Options.Shards = 4
	if Fingerprint(sharded) != k {
		t.Fatal("Shards leaked into the fingerprint")
	}
	// Explicitly writing a default must equal leaving it zero.
	defaulted := base()
	defaulted.Options.ChaseLines = 1 << 19
	defaulted.Options.ArrayBytes = 32 << 20
	if Fingerprint(defaulted) != k {
		t.Fatal("explicit defaults fingerprint differently from implied defaults")
	}

	// Every semantically relevant change must move the key.
	mutations := map[string]func(*Request){
		"spec name":      func(r *Request) { r.Spec.Name = "other" },
		"cores":          func(r *Request) { r.Spec.Cores++ },
		"freq":           func(r *Request) { r.Spec.FreqGHz += 0.1 },
		"dram channels":  func(r *Request) { r.Spec.DRAM.Channels++ },
		"dram CL":        func(r *Request) { r.Spec.DRAM.Timing.CL += sim.Nanosecond },
		"write policy":   func(r *Request) { r.Spec.Policy = cache.WriteThrough },
		"on-chip lat":    func(r *Request) { r.Spec.OnChipLatency += sim.Nanosecond },
		"mshrs":          func(r *Request) { r.Spec.MSHRs++ },
		"mixes":          func(r *Request) { r.Options.Mixes = append(r.Options.Mixes, bench.Mix{StorePercent: 70}) },
		"nt mix":         func(r *Request) { r.Options.Mixes[0].NonTemporal = true },
		"paces":          func(r *Request) { r.Options.PacesNs = append(r.Options.PacesNs, 1024) },
		"warmup":         func(r *Request) { r.Options.Warmup = 9 * sim.Microsecond },
		"measure":        func(r *Request) { r.Options.Measure = 9 * sim.Microsecond },
		"chase lines":    func(r *Request) { r.Options.ChaseLines = 1 << 20 },
		"array bytes":    func(r *Request) { r.Options.ArrayBytes = 1 << 20 },
		"tag":            func(r *Request) { r.Tag = "model:fixed" },
		"cache override": func(r *Request) { r.Options.Cache = &cache.Config{MSHRs: 4} },
		"bugged evict": func(r *Request) {
			cfg := r.Spec.CacheConfig()
			cfg.EvictCleanAsDirty = true
			r.Options.Cache = &cfg
		},
	}
	seen := map[Key]string{k: "base"}
	for name, mutate := range mutations {
		r := base()
		mutate(&r)
		got := Fingerprint(r)
		if prev, dup := seen[got]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[got] = name
	}
}

// TestFingerprintGolden pins the digest of a fixed reference request. If
// this fails after an intentional spec/options change, bump the encoding
// version prefix in Fingerprint and update the constant — silently
// re-keying would orphan every on-disk cache entry. The keys of every
// request the shipped tools make are pinned by exp.TestRequestKeysGolden.
func TestFingerprintGolden(t *testing.T) {
	const want = "76bc82094efc7bc7a0861b30415230dbdc3c9293ee3ed9ebbe8e248dc7a22790"
	a := Fingerprint(Request{Spec: platform.Skylake(), Options: bench.QuickOptions()})
	if a.String() != want {
		t.Fatalf("Skylake quick key = %s, want %s", a, want)
	}
	if a.Short() != want[:12] {
		t.Fatalf("short key = %q, want %q", a.Short(), want[:12])
	}
}

func TestFamilyOnlyHitSkipsSampleCopy(t *testing.T) {
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0)})
	req := Request{Spec: testSpec("famonly"), Options: bench.QuickOptions()}
	art, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if art.Result != nil {
		t.Fatal("family-only request received a raw-sample Result")
	}
	// The same entry still serves a NeedSamples request without re-running:
	// the live run populated res; only the artifact shape differs.
	req.NeedSamples = true
	withSamples, err := svc.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if withSamples.Result == nil || calls.Load() != 1 {
		t.Fatalf("NeedSamples after live run: result=%v calls=%d", withSamples.Result, calls.Load())
	}
}

func TestNeedSamplesUpgradeNotCountedAsHit(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Spec: testSpec("hitstats"), Options: bench.QuickOptions()}
	if err := store.Save(bg, Fingerprint(req), &core.Family{
		Label: "hitstats", TheoreticalBW: 100,
		Curves: []core.Curve{{ReadRatio: 1, Points: []core.Point{{BW: 1, Latency: 90}, {BW: 50, Latency: 150}}}},
	}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0), Store: store})
	if _, err := svc.Characterize(req); err != nil { // disk hit
		t.Fatal(err)
	}
	req.NeedSamples = true
	if _, err := svc.Characterize(req); err != nil { // upgrade: run, not a hit
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.MemoryHits != 0 || st.DiskHits != 1 || st.Runs != 1 {
		t.Fatalf("stats = %+v, want 0 memory hits, 1 disk hit, 1 run", st)
	}
}

// --- sharded store layout and eviction ---

func famForStoreTest(label string) *core.Family {
	return &core.Family{
		Label:         label,
		TheoreticalBW: 100,
		Curves: []core.Curve{
			{ReadRatio: 1.0, Points: []core.Point{{BW: 1, Latency: 90}, {BW: 80, Latency: 200}}},
		},
	}
}

func keyForStoreTest(i int) Key {
	return Fingerprint(Request{Spec: testSpec(fmt.Sprintf("shard-%d", i)), Options: bench.QuickOptions()})
}

func TestDiskStoreShardsByKeyPrefix(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := keyForStoreTest(1)
	if err := store.Save(bg, key, famForStoreTest("sharded")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, key.String()[:2], key.String()+".csv")
	if store.Path(key) != want {
		t.Fatalf("Path = %q, want %q", store.Path(key), want)
	}
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("saved file not in shard subdirectory: %v", err)
	}
	fam, ok, err := store.Load(bg, key)
	if err != nil || !ok {
		t.Fatalf("Load after sharded save: ok=%v err=%v", ok, err)
	}
	if fam.Label != "sharded" {
		t.Fatalf("label = %q", fam.Label)
	}
}

// TestServiceCollectableWithTelemetry holds the registry to counters it
// owns: a service built on a long-lived registry must not stay reachable
// through it once the service itself is dropped.
func TestServiceCollectableWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	collected := make(chan struct{})
	func() {
		var calls atomic.Int64
		s := New(Config{Run: fakeRun(&calls, 0), Telemetry: &telemetry.Set{Metrics: reg}})
		if _, err := s.Characterize(Request{Spec: testSpec("collectable"), Options: bench.QuickOptions()}); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(s, func(*Service) { close(collected) })
	}()
	// A finalizer runs on its own goroutine after the collection that
	// found the service unreachable, so give it a bounded time to report.
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped Service is still reachable through the telemetry registry")
	}
	runtime.KeepAlive(reg)
}
