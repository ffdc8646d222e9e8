package charz

// Chaos tests: drive the real characterization stack — service, tiered
// store, HTTP client, in-process curve server — through seeded
// hostile schedules (internal/faultz) and assert the resilience contract
// the rest of the repository merely states:
//
//   - a caller never sees an error from cache trouble, only from its own
//     cancellation;
//   - each key re-simulates at most once per process, faults or not;
//   - whatever arrives through a hostile wire is byte-identical to the
//     fault-free result (corruption is detected, never served);
//   - corrupt entries quarantine and heal by re-upload;
//   - cancellation propagates through hung dependencies in bounded time.
//
// Every schedule is seeded, so a failure reproduces from its log line.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/faultz"
	"github.com/mess-sim/mess/internal/platform"
)

// chaosClient builds a curve-store client whose every request passes
// through the fault plan, with retries and circuit recovery fast enough
// for a test soak. The 250 ms request timeout converts injected hangs into
// transport errors, exactly as a production deadline would.
func chaosClient(t *testing.T, url string, plan *faultz.Plan) *curvestore.Client {
	t.Helper()
	c, err := curvestore.NewClient(url, curvestore.ClientConfig{
		HTTPClient: &http.Client{
			Timeout:   250 * time.Millisecond,
			Transport: faultz.NewTransport(nil, plan),
		},
		Retries:  2,
		Backoff:  time.Millisecond,
		Cooldown: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceCSVs runs the fault-free pipeline once and returns each key's
// canonical CSV — the byte-identity oracle for every chaos run.
func referenceCSVs(t *testing.T, reqs []Request) map[string][]byte {
	t.Helper()
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0)})
	out := make(map[string][]byte, len(reqs))
	for _, req := range reqs {
		art, err := svc.Characterize(req)
		if err != nil {
			t.Fatal(err)
		}
		out[req.Spec.Name] = csvBytes(t, art)
	}
	return out
}

// TestChaosHostileRemoteInvariants is the headline chaos soak: two
// independent services share one real in-process curve server through a
// transport injecting errors, hangs, latency, corruption and truncation.
// The callers must ride through all of it.
func TestChaosHostileRemoteInvariants(t *testing.T) {
	ts, _, _ := newCurved(t)

	const seed = 20240822
	plan := faultz.MustPlan(faultz.Config{
		Seed:      seed,
		ErrorP:    0.2,
		HangP:     0.05,
		CorruptP:  0.15,
		TruncateP: 0.1,
		LatencyP:  0.2,
		Latency:   2 * time.Millisecond,
	})
	t.Logf("chaos seed %d", seed)

	var reqs []Request
	for _, n := range []string{"c1", "c2", "c3", "c4", "c5", "c6"} {
		reqs = append(reqs, Request{Spec: testSpec(n), Options: bench.QuickOptions()})
	}
	want := referenceCSVs(t, reqs)

	soak := func(label string) int64 {
		var calls atomic.Int64
		svc := New(Config{Run: fakeRun(&calls, 0), Remote: chaosClient(t, ts.URL, plan)})
		for _, req := range reqs {
			// Twice per key: the second request must come from the
			// process-local memory tier, proving a key re-simulates at most
			// once no matter what the remote tier does.
			before := calls.Load()
			for i := 0; i < 2; i++ {
				art, err := svc.Characterize(req)
				if err != nil {
					t.Fatalf("%s: %s request %d surfaced a cache failure: %v", label, req.Spec.Name, i, err)
				}
				if got := csvBytes(t, art); !bytes.Equal(got, want[req.Spec.Name]) {
					t.Fatalf("%s: %s served curves differing from the fault-free run:\ngot:\n%s\nwant:\n%s",
						label, req.Spec.Name, got, want[req.Spec.Name])
				}
			}
			if calls.Load() > before+1 {
				t.Fatalf("%s: %s simulated %d times in one process, want at most 1",
					label, req.Spec.Name, calls.Load()-before)
			}
		}
		return calls.Load()
	}

	callsA := soak("machine A")
	if callsA != int64(len(reqs)) {
		t.Fatalf("machine A ran %d simulations for %d cold keys, want one each", callsA, len(reqs))
	}
	// Machine B may be served remotely (when the wire cooperated) or
	// re-simulate (when it did not) — but never more than once per key, and
	// never an error. That bound is asserted inside soak.
	callsB := soak("machine B")
	if callsB > int64(len(reqs)) {
		t.Fatalf("machine B ran %d simulations for %d keys", callsB, len(reqs))
	}

	st := plan.Stats()
	if st.Injected() == 0 {
		t.Fatalf("hostile schedule injected nothing over %d ops — the soak tested a healthy wire", st.Ops)
	}
	t.Logf("injected %d faults over %d ops: %+v (machine B re-simulated %d/%d)",
		st.Injected(), st.Ops, st, callsB, len(reqs))
}

// TestChaosCorruptServerEntryQuarantinedAndHealed corrupts a stored entry
// on the server's disk and checks the full repair loop: the server
// quarantines on load, serves a miss, the client re-simulates and
// re-uploads, and the next machine is served the healed entry.
func TestChaosCorruptServerEntryQuarantinedAndHealed(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Serve straight from disk (no hot tier) so the corrupted file is what
	// the GET path actually reads.
	ts := httptest.NewServer(curvestore.NewServer(disk, curvestore.ServerConfig{}))
	t.Cleanup(ts.Close)

	req := Request{Spec: testSpec("heal"), Options: bench.QuickOptions()}
	want := referenceCSVs(t, []Request{req})[req.Spec.Name]
	key := Fingerprint(req)

	var callsA atomic.Int64
	svcA := New(Config{Run: fakeRun(&callsA, 0), Remote: remoteClient(t, ts.URL)})
	if _, err := svcA.Characterize(req); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := disk.Load(bg, key); !ok || err != nil {
		t.Fatalf("upload did not land on the server disk: ok=%v err=%v", ok, err)
	}

	// Bit-rot on the server: the stored CSV is now garbage.
	if err := os.WriteFile(disk.Path(key), []byte("not,a,curve\nat all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var callsB atomic.Int64
	svcB := New(Config{Run: fakeRun(&callsB, 0), Remote: remoteClient(t, ts.URL)})
	artB, err := svcB.Characterize(req)
	if err != nil {
		t.Fatalf("corrupt server entry surfaced as an error: %v", err)
	}
	if artB.Source != SourceRun || callsB.Load() != 1 {
		t.Fatalf("corrupt entry not treated as a miss: source=%v calls=%d", artB.Source, callsB.Load())
	}
	if !bytes.Equal(csvBytes(t, artB), want) {
		t.Fatal("re-simulated curves differ from the fault-free run")
	}

	// The poisoned file is quarantined for post-mortem, and the key healed
	// by machine B's re-upload.
	if _, err := os.Stat(disk.Path(key) + ".bad"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	fam, ok, err := disk.Load(bg, key)
	if err != nil || !ok {
		t.Fatalf("entry not healed by re-upload: ok=%v err=%v", ok, err)
	}
	var healed bytes.Buffer
	if err := fam.WriteCSV(&healed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed.Bytes(), want) {
		t.Fatal("healed entry differs from the fault-free curves")
	}

	// A third machine is served the healed entry remotely — zero runs.
	var callsC atomic.Int64
	svcC := New(Config{Run: fakeRun(&callsC, 0), Remote: remoteClient(t, ts.URL)})
	artC, err := svcC.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if artC.Source != SourceRemote || callsC.Load() != 0 {
		t.Fatalf("healed entry not served remotely: source=%v calls=%d", artC.Source, callsC.Load())
	}
}

// TestChaosCorruptDownloadRejected serves an intact entry through a
// transport that corrupts the response body: the client's ETag integrity
// check must reject it (a miss, hence a re-simulation), never hand
// plausible-but-wrong curves to the caller.
func TestChaosCorruptDownloadRejected(t *testing.T) {
	ts, _, _ := newCurved(t)

	req := Request{Spec: testSpec("integrity"), Options: bench.QuickOptions()}
	want := referenceCSVs(t, []Request{req})[req.Spec.Name]

	// Seed the server with the intact entry.
	var seedCalls atomic.Int64
	if _, err := New(Config{Run: fakeRun(&seedCalls, 0), Remote: remoteClient(t, ts.URL)}).Characterize(req); err != nil {
		t.Fatal(err)
	}

	// Machine B's first download is corrupted in flight; everything after
	// is clean.
	plan := faultz.MustPlan(faultz.Config{Script: []faultz.Fault{{Kind: faultz.Corrupt}}})
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0), Remote: chaosClient(t, ts.URL, plan)})
	art, err := svc.Characterize(req)
	if err != nil {
		t.Fatalf("corrupt download surfaced as an error: %v", err)
	}
	if art.Source != SourceRun || calls.Load() != 1 {
		t.Fatalf("corrupt download not rejected: source=%v calls=%d (a bit-flipped body was trusted?)",
			art.Source, calls.Load())
	}
	if !bytes.Equal(csvBytes(t, art), want) {
		t.Fatal("re-simulated curves differ from the fault-free run")
	}
}

// TestChaosFlakyServerSoak flaps the curve server up and down across a
// multi-key run — the mid-incident fleet. Every characterization must
// succeed, each key simulating exactly once in the process regardless of
// which flap it landed on, and a later machine must end up with
// byte-identical curves whether it was served remotely or re-simulated.
func TestChaosFlakyServerSoak(t *testing.T) {
	_, srv, _ := newCurved(t)
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "mid-incident", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	var reqs []Request
	for _, n := range []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"} {
		reqs = append(reqs, Request{Spec: testSpec(n), Options: bench.QuickOptions()})
	}
	want := referenceCSVs(t, reqs)

	var callsA atomic.Int64
	svcA := New(Config{Run: fakeRun(&callsA, 0), Remote: remoteClient(t, flaky.URL)})
	for i, req := range reqs {
		down.Store(i%2 == 1) // flap between every key
		for j := 0; j < 2; j++ {
			art, err := svcA.Characterize(req)
			if err != nil {
				t.Fatalf("%s (server down=%v): %v", req.Spec.Name, down.Load(), err)
			}
			if !bytes.Equal(csvBytes(t, art), want[req.Spec.Name]) {
				t.Fatalf("%s: curves differ from fault-free run", req.Spec.Name)
			}
		}
	}
	if callsA.Load() != int64(len(reqs)) {
		t.Fatalf("flapping server caused %d simulations for %d keys, want exactly one each", callsA.Load(), len(reqs))
	}

	// Recovery: with the server back up, a fresh machine covers every key
	// through some mix of remote hits (keys uploaded while up) and
	// re-simulation (keys lost to the flaps) — never an error, always the
	// same bytes.
	down.Store(false)
	var callsB atomic.Int64
	svcB := New(Config{Run: fakeRun(&callsB, 0), Remote: remoteClient(t, flaky.URL)})
	for _, req := range reqs {
		art, err := svcB.Characterize(req)
		if err != nil {
			t.Fatalf("post-recovery %s: %v", req.Spec.Name, err)
		}
		if !bytes.Equal(csvBytes(t, art), want[req.Spec.Name]) {
			t.Fatalf("post-recovery %s: curves differ from fault-free run", req.Spec.Name)
		}
	}
	st := svcB.Stats()
	if st.Runs+st.RemoteHits != int64(len(reqs)) {
		t.Fatalf("machine B stats %+v do not cover %d keys", st, len(reqs))
	}
	if srv.Stats().Puts == 0 {
		t.Fatal("no upload ever reached the server — the soak never exercised the up phase")
	}
	t.Logf("machine B after recovery: %d remote hits, %d re-simulations", st.RemoteHits, st.Runs)
}

// TestDiskStoreQuarantineHealsBySave pins the local-tier half of the
// quarantine story: an unparsable cache file errors once, reads as a clean
// miss from then on, heals by re-save, and the sidelined .bad file is
// swept by GC after its post-mortem window.
// A cached file whose read ratios are NaN once panicked the parser; it is a
// corrupt entry like any other: an error, a quarantine, then a clean miss.
func TestDiskStoreQuarantinesNonFiniteCSV(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyForStoreTest(43)
	if err := store.Save(bg, key, famForStoreTest("nan")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(key), []byte("read_ratio,bw_gbs,latency_ns\nNaN,1,90\nNaN,2,95\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Load(bg, key); ok || err == nil {
		t.Fatalf("NaN entry read back: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(store.Path(key) + ".bad"); err != nil {
		t.Fatalf("NaN file not quarantined: %v", err)
	}
	if _, ok, err := store.Load(bg, key); ok || err != nil {
		t.Fatalf("quarantined key not a clean miss: ok=%v err=%v", ok, err)
	}
}

func TestDiskStoreQuarantineHealsBySave(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyForStoreTest(42)
	if err := store.Save(bg, key, famForStoreTest("healme")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(key), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// First read: an error (and the file is sidelined).
	if _, ok, err := store.Load(bg, key); ok || err == nil {
		t.Fatalf("corrupt entry read back: ok=%v err=%v", ok, err)
	}
	bad := store.Path(key) + ".bad"
	if _, err := os.Stat(bad); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	// Second read: a clean miss, not a recurring error.
	if _, ok, err := store.Load(bg, key); ok || err != nil {
		t.Fatalf("quarantined key not a clean miss: ok=%v err=%v", ok, err)
	}
	// Re-save heals the key.
	if err := store.Save(bg, key, famForStoreTest("healed")); err != nil {
		t.Fatal(err)
	}
	fam, ok, err := store.Load(bg, key)
	if err != nil || !ok || fam.Label != "healed" {
		t.Fatalf("key not healed by re-save: fam=%v ok=%v err=%v", fam, ok, err)
	}
}

// TestCharacterizeContextCancelsBlockedRun proves caller cancellation cuts
// through a characterization stuck in the benchmark itself.
func TestCharacterizeContextCancelsBlockedRun(t *testing.T) {
	blocked := New(Config{Run: func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := blocked.CharacterizeContext(ctx, Request{Spec: testSpec("cancel-run"), Options: bench.QuickOptions()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}

// TestCharacterizeContextCancelsHungRemote proves a deadline cuts through
// a remote tier that hangs (a wedged server holding the connection open):
// the caller gets its deadline error in bounded time, not a stuck lookup.
func TestCharacterizeContextCancelsHungRemote(t *testing.T) {
	hung := faultz.NewStore(curvestore.NewMemory(4), faultz.MustPlan(faultz.Config{HangP: 1}))
	var calls atomic.Int64
	svc := New(Config{Run: fakeRun(&calls, 0), Remote: hung})

	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.CharacterizeContext(ctx, Request{Spec: testSpec("cancel-remote"), Options: bench.QuickOptions()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to cut through the hung tier", elapsed)
	}

	// The same service still works for a caller with a live context: the
	// injected plan is exhausted per-op, so give it a fresh benign remote.
	live := New(Config{Run: fakeRun(&calls, 0)})
	if _, err := live.CharacterizeContext(bg, Request{Spec: testSpec("cancel-remote"), Options: bench.QuickOptions()}); err != nil {
		t.Fatalf("follow-up characterization failed: %v", err)
	}
}
