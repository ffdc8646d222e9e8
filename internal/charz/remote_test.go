package charz

import (
	"bytes"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/curvestore"
)

// newCurved starts an in-process curve server over a fresh sharded
// DiskStore behind a memory tier.
func newCurved(t *testing.T) (*httptest.Server, *curvestore.Server, *DiskStore) {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := curvestore.NewServer(
		curvestore.NewTiered(curvestore.NewMemory(64), disk),
		curvestore.ServerConfig{SaveStore: disk},
	)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, disk
}

func remoteClient(t *testing.T, url string) *curvestore.Client {
	t.Helper()
	c, err := curvestore.NewClient(url, curvestore.ClientConfig{
		Retries:  1,
		Backoff:  time.Millisecond,
		Cooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func csvBytes(t *testing.T, art *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := art.Family.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteStoreFleetRoundTrip is the shared-fleet acceptance test: two
// independent characterization services (two machines) behind one
// in-process curve server perform exactly one benchmark run between them,
// and the curves served from the remote tier are byte-identical to the
// locally produced ones.
func TestRemoteStoreFleetRoundTrip(t *testing.T) {
	ts, srv, _ := newCurved(t)

	req := Request{Spec: testSpec("fleet"), Options: bench.QuickOptions()}

	// Machine A: local disk + remote. A fresh key simulates once, saving
	// to both tiers.
	diskA, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var callsA atomic.Int64
	svcA := New(Config{Run: fakeRun(&callsA, 0), Store: diskA, Remote: remoteClient(t, ts.URL)})
	artA, err := svcA.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if artA.Source != SourceRun || callsA.Load() != 1 {
		t.Fatalf("machine A: source=%v calls=%d, want one fresh run", artA.Source, callsA.Load())
	}
	if st := srv.Stats(); st.Puts != 1 {
		t.Fatalf("fresh run not uploaded: server stats %+v", st)
	}

	// Machine B: different disk, same server. The curves come from the
	// remote tier — zero additional benchmark runs across the fleet.
	diskB, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var callsB atomic.Int64
	svcB := New(Config{Run: fakeRun(&callsB, 0), Store: diskB, Remote: remoteClient(t, ts.URL)})
	artB, err := svcB.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if artB.Source != SourceRemote {
		t.Fatalf("machine B source = %v, want remote", artB.Source)
	}
	if got := callsA.Load() + callsB.Load(); got != 1 {
		t.Fatalf("fleet ran %d benchmarks for one key across two machines, want exactly 1", got)
	}
	if st := svcB.Stats(); st.RemoteHits != 1 || st.Runs != 0 {
		t.Fatalf("machine B stats = %+v, want 1 remote hit and 0 runs", st)
	}

	// The remote-served CSV is byte-identical to the locally produced one.
	if !bytes.Equal(csvBytes(t, artA), csvBytes(t, artB)) {
		t.Fatalf("remote curves differ from local ones:\nA:\n%s\nB:\n%s", csvBytes(t, artA), csvBytes(t, artB))
	}

	// The remote hit was promoted into machine B's disk tier: a third
	// process on machine B is served locally even with the server gone.
	key := Fingerprint(req)
	if _, ok, err := diskB.Load(bg, key); !ok || err != nil {
		t.Fatalf("remote hit not promoted into the local disk store: ok=%v err=%v", ok, err)
	}
	ts.Close()
	var callsB2 atomic.Int64
	svcB2 := New(Config{Run: fakeRun(&callsB2, 0), Store: diskB, Remote: remoteClient(t, ts.URL)})
	artB2, err := svcB2.Characterize(req)
	if err != nil {
		t.Fatal(err)
	}
	if artB2.Source != SourceDisk || callsB2.Load() != 0 {
		t.Fatalf("post-promotion local read: source=%v calls=%d, want a disk hit", artB2.Source, callsB2.Load())
	}
	if !bytes.Equal(csvBytes(t, artA), csvBytes(t, artB2)) {
		t.Fatal("disk-tier curves differ from the original run")
	}
}

// TestRemoteStoreFleetDedupAcrossBatch drives both services through a
// multi-key batch and checks the fleet-wide invariant: one run per unique
// key, no matter which machine asked first.
func TestRemoteStoreFleetDedupAcrossBatch(t *testing.T) {
	ts, srv, _ := newCurved(t)

	names := []string{"p1", "p2", "p3", "p4"}
	var reqs []Request
	for _, n := range names {
		reqs = append(reqs, Request{Spec: testSpec(n), Options: bench.QuickOptions()})
	}

	var callsA, callsB atomic.Int64
	svcA := New(Config{Run: fakeRun(&callsA, 0), Remote: remoteClient(t, ts.URL)})
	svcB := New(Config{Run: fakeRun(&callsB, 0), Remote: remoteClient(t, ts.URL)})

	if _, err := svcA.CharacterizeAllContext(bg, reqs[:3]); err != nil { // p1 p2 p3 run on A
		t.Fatal(err)
	}
	if _, err := svcB.CharacterizeAllContext(bg, reqs); err != nil { // p4 runs on B, rest remote
		t.Fatal(err)
	}
	if got := callsA.Load() + callsB.Load(); got != int64(len(names)) {
		t.Fatalf("fleet ran %d benchmarks for %d unique keys, want exactly %d", got, len(names), len(names))
	}
	if st := svcB.Stats(); st.RemoteHits != 3 || st.Runs != 1 {
		t.Fatalf("machine B stats = %+v, want 3 remote hits and 1 run", st)
	}
	if st := srv.Stats(); st.Puts != int64(len(names)) {
		t.Fatalf("server holds %d families, want %d", st.Puts, len(names))
	}
}

// TestRemoteStoreFailSoft kills the server mid-fleet: characterizations
// must keep succeeding from local tiers — first from disk, then by
// re-simulating — and never surface the outage as an error.
func TestRemoteStoreFailSoft(t *testing.T) {
	ts, _, _ := newCurved(t)

	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cfg := Config{Run: fakeRun(&calls, 0), Store: disk, Remote: remoteClient(t, ts.URL)}
	svc := New(cfg)

	warm := Request{Spec: testSpec("warm"), Options: bench.QuickOptions()}
	if _, err := svc.Characterize(warm); err != nil {
		t.Fatal(err)
	}

	ts.Close() // the server dies mid-run

	// A key already in the local disk tier: served from disk.
	svc = New(cfg) // same tiers, empty memory: the lookup reaches them
	art, err := svc.Characterize(warm)
	if err != nil {
		t.Fatalf("disk-backed characterization failed with the server down: %v", err)
	}
	if art.Source != SourceDisk {
		t.Fatalf("source = %v, want disk", art.Source)
	}

	// A brand-new key: the remote tier errors on load AND save, and the
	// characterization still succeeds by simulating locally.
	cold := Request{Spec: testSpec("cold"), Options: bench.QuickOptions()}
	art, err = svc.Characterize(cold)
	if err != nil {
		t.Fatalf("fresh characterization failed with the server down: %v", err)
	}
	if art.Source != SourceRun {
		t.Fatalf("source = %v, want run", art.Source)
	}
	// And it still persisted to the surviving local tier.
	if _, ok, _ := disk.Load(bg, Fingerprint(cold)); !ok {
		t.Fatal("family not saved to the local disk tier while the server was down")
	}
}
