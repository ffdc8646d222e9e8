package curvestore

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/telemetry"
)

// countingStore wraps a Store and counts operations reaching it.
type countingStore struct {
	Store
	loads, saves atomic.Int64
}

func (c *countingStore) Load(ctx context.Context, k Key) (fam *core.Family, ok bool, err error) {
	c.loads.Add(1)
	return c.Store.Load(ctx, k)
}

func (c *countingStore) Save(ctx context.Context, k Key, fam *core.Family) error {
	c.saves.Add(1)
	return c.Store.Save(ctx, k, fam)
}

func fastClient(t *testing.T, url string) *Client {
	t.Helper()
	c, err := NewClient(url, ClientConfig{
		Retries:  2,
		Backoff:  time.Millisecond,
		Cooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientServerRoundTrip(t *testing.T) {
	backing := NewMemory(0)
	srv := NewServer(backing, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	up := fastClient(t, ts.URL)
	down := fastClient(t, ts.URL)
	key := testKey(20)

	// Miss before anything is uploaded.
	if fam, ok, err := down.Load(bg, key); fam != nil || ok || err != nil {
		t.Fatalf("load before save: %v %v %v", fam, ok, err)
	}
	if err := up.Save(bg, key, testFam("fleet")); err != nil {
		t.Fatal(err)
	}
	fam, ok, err := down.Load(bg, key)
	if err != nil || !ok {
		t.Fatalf("load after save: ok=%v err=%v", ok, err)
	}
	if fam.Label != "fleet" || len(fam.Curves) != 2 {
		t.Fatalf("family mangled over HTTP: %+v", fam)
	}

	st := srv.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("server stats = %+v, want 1 put, 1 hit, 1 miss", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not tracked: %+v", st)
	}
}

func TestClientRevalidatesWithETag(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	up := fastClient(t, ts.URL)
	key := testKey(21)
	if err := up.Save(bg, key, testFam("etag")); err != nil {
		t.Fatal(err)
	}

	reader := fastClient(t, ts.URL)
	if _, ok, err := reader.Load(bg, key); !ok || err != nil {
		t.Fatalf("first load: ok=%v err=%v", ok, err)
	}
	sent := srv.Stats().BytesOut
	fam, ok, err := reader.Load(bg, key)
	if !ok || err != nil {
		t.Fatalf("revalidated load: ok=%v err=%v", ok, err)
	}
	if fam.Label != "etag" {
		t.Fatalf("revalidated family mangled: %q", fam.Label)
	}
	st := srv.Stats()
	if st.Revalidations != 1 {
		t.Fatalf("revalidations = %d, want 1 (If-None-Match not honoured)", st.Revalidations)
	}
	if st.BytesOut != sent {
		t.Fatalf("304 still transferred a body: %d -> %d bytes", sent, st.BytesOut)
	}

	// The uploader revalidates straight from its Save-time cache too.
	if _, ok, err := up.Load(bg, key); !ok || err != nil {
		t.Fatalf("uploader revalidation: ok=%v err=%v", ok, err)
	}
	if got := srv.Stats().Revalidations; got != 2 {
		t.Fatalf("revalidations = %d, want 2", got)
	}
}

func TestServerPUTSingleflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	backing := &countingStore{Store: NewMemory(0)}
	slow := &gateStore{inner: backing, entered: entered, release: release}
	srv := NewServer(slow, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	key := testKey(22)
	const dups = 3
	var wg sync.WaitGroup
	errs := make([]error, dups+1)
	put := func(i int) {
		defer wg.Done()
		c := fastClient(t, ts.URL)
		errs[i] = c.Save(bg, key, testFam("stampede"))
	}
	// The winner enters the (gated) store save...
	wg.Add(1)
	go put(0)
	<-entered
	// ...then the stampede arrives and must queue as dedup waiters.
	for i := 1; i <= dups; i++ {
		wg.Add(1)
		go put(i)
	}
	waitFor(t, func() bool { return srv.Stats().PutDedups == dups })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d failed: %v", i, err)
		}
	}
	if got := backing.saves.Load(); got != 1 {
		t.Fatalf("store saw %d saves for %d concurrent uploads, want 1", got, dups+1)
	}
	st := srv.Stats()
	if st.Puts != 1 || st.PutDedups != dups {
		t.Fatalf("stats = %+v, want 1 put and %d dedups", st, dups)
	}
}

// gateStore blocks the first Save until released, signalling entry.
type gateStore struct {
	inner   Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) Load(ctx context.Context, k Key) (*core.Family, bool, error) {
	return g.inner.Load(ctx, k)
}
func (g *gateStore) Save(ctx context.Context, k Key, fam *core.Family) error {
	g.once.Do(func() {
		g.entered <- struct{}{}
		<-g.release
	})
	return g.inner.Save(ctx, k, fam)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerRejectsContentSHAMismatch(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var csv bytes.Buffer
	if err := testFam("sha").WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	put := func(sha string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/curves/"+testKey(23).String(), bytes.NewReader(csv.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if sha != "" {
			req.Header.Set("Content-SHA256", sha)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	sum := sha256.Sum256(csv.Bytes())
	wrong := sha256.Sum256([]byte("corrupted in transit"))
	if code := put(hex.EncodeToString(wrong[:])); code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched digest accepted with %d", code)
	}
	if got := srv.Stats().BadPuts; got != 1 {
		t.Fatalf("bad_puts = %d, want 1", got)
	}
	if code := put(hex.EncodeToString(sum[:])); code != http.StatusNoContent {
		t.Fatalf("matching digest rejected with %d", code)
	}
	// Uncompressed, digest-free uploads (curl-style seeding) still work.
	if code := put(""); code != http.StatusNoContent {
		t.Fatalf("digest-free upload rejected with %d", code)
	}
}

// A body whose numbers are NaN or ±Inf is a bad upload — it once panicked the
// handler's parser — answered 400, counted, and never stored.
func TestServerRejectsNonFiniteCSV(t *testing.T) {
	store := NewMemory(0)
	srv := NewServer(store, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, body := range []string{
		"read_ratio,bw_gbs,latency_ns\nNaN,1,90\nNaN,2,95\n",
		"# theoretical_bw_gbs: NaN\n0.5,1,90\n0.5,2,95\n",
		"0.5,1,90\n0.5,Inf,95\n",
	} {
		key := testKey(40 + i)
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/curves/"+key.String(), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("body %d: %v (handler panicked?)", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %d: status %d, want 400", i, resp.StatusCode)
		}
		if got := srv.Stats().BadPuts; got != int64(i+1) {
			t.Errorf("body %d: bad_puts = %d, want %d", i, got, i+1)
		}
		if _, ok, _ := store.Load(bg, key); ok {
			t.Errorf("body %d: rejected upload was stored", i)
		}
	}
}

// TestServerPUTDurability pins the SaveStore contract: when the durable
// tier is broken, a PUT must fail loudly (500) rather than be silently
// absorbed by the bounded memory tier of the serving composition.
func TestServerPUTDurability(t *testing.T) {
	brokenDisk := errStore{err: errDiskFull}
	hot := NewMemory(4)
	srv := NewServer(NewTiered(hot, brokenDisk), ServerConfig{SaveStore: brokenDisk})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	err := fastClient(t, ts.URL).Save(bg, testKey(29), testFam("volatile"))
	if err == nil {
		t.Fatal("upload acknowledged with the durable tier broken")
	}
	if hot.Len() != 0 {
		t.Fatal("failed upload leaked into the hot tier")
	}
	if got := srv.Stats().Puts; got != 0 {
		t.Fatalf("puts = %d after a failed upload, want 0", got)
	}
}

var errDiskFull = errors.New("disk full")

func TestServerRejectsGarbage(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	do := func(method, path string, body []byte) int {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(http.MethodGet, "/v1/curves/not-a-key", nil); code != http.StatusBadRequest {
		t.Fatalf("bad key GET = %d", code)
	}
	if code := do(http.MethodPut, "/v1/curves/"+testKey(24).String(), []byte("definitely,not,curves")); code != http.StatusBadRequest {
		t.Fatalf("garbage CSV accepted with %d", code)
	}
	if code := do(http.MethodDelete, "/v1/curves/"+testKey(24).String(), nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d", code)
	}
	if code := do(http.MethodGet, "/v2/other", nil); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", code)
	}
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	var failures atomic.Int64
	backing := NewMemory(0)
	real := NewServer(backing, ServerConfig{})
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	c := fastClient(t, ts.URL)
	if err := c.Save(bg, testKey(25), testFam("retry")); err != nil {
		t.Fatalf("save through 2 transient 500s: %v", err)
	}
	if _, ok, _ := backing.Load(bg, testKey(25)); !ok {
		t.Fatal("family never reached the store")
	}
}

func TestClientFailSoftWhenServerDown(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewMemory(0), ServerConfig{}))
	url := ts.URL
	ts.Close() // nobody listening any more

	c := fastClient(t, url)
	start := time.Now()
	if _, ok, err := c.Load(bg, testKey(26)); ok || err == nil {
		t.Fatalf("load from dead server: ok=%v err=%v, want a tier error", ok, err)
	}
	// The circuit is now open: every further call is an instant miss with
	// no error — the degraded mode Tiered and charz ride through.
	if _, ok, err := c.Load(bg, testKey(26)); ok || err != nil {
		t.Fatalf("load with open circuit: ok=%v err=%v, want silent miss", ok, err)
	}
	if err := c.Save(bg, testKey(26), testFam("x")); err != ErrUnavailable {
		t.Fatalf("save with open circuit: %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("degraded calls took %v — circuit not short-circuiting", elapsed)
	}
}

// missSaveLoad drives one miss, one upload and one revalidating load of key
// through c: the traffic the two stats tests below count.
func missSaveLoad(t *testing.T, c *Client, key Key) {
	t.Helper()
	if _, ok, err := c.Load(bg, key); ok || err != nil {
		t.Fatalf("load before save: ok=%v err=%v", ok, err)
	}
	if err := c.Save(bg, key, testFam("stats")); err != nil {
		t.Fatal(err)
	}
	// The client remembers what it uploaded, so this load revalidates.
	if _, ok, err := c.Load(bg, key); !ok || err != nil {
		t.Fatalf("load: %v %v", ok, err)
	}
}

// TestServerStats checks the server's counters against the traffic that
// just happened.
func TestServerStats(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	missSaveLoad(t, fastClient(t, ts.URL), testKey(27))
	if st := srv.Stats(); st.Puts != 1 || st.Hits != 1 || st.Revalidations != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 put, 1 hit (a revalidation) and 1 miss", st)
	}
}

// TestClientInstrumentCounters checks the counters Client.Instrument
// registers against the same traffic, read back through Registry.Snapshot.
func TestClientInstrumentCounters(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewMemory(0), ServerConfig{}))
	defer ts.Close()

	reg := telemetry.NewRegistry()
	c := fastClient(t, ts.URL)
	c.Instrument(reg)
	missSaveLoad(t, c, testKey(27))
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		`mess_curve_client_requests_total{op="load"}`: 2,
		`mess_curve_client_requests_total{op="save"}`: 1,
		"mess_curve_client_hits_total":                1,
		"mess_curve_client_circuit_open":              0,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestGzipOnTheWire(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	key := testKey(28)
	if err := fastClient(t, ts.URL).Save(bg, key, testFam("gzip")); err != nil {
		t.Fatal(err)
	}

	// A raw GET advertising gzip must receive a gzip body that decodes to
	// the canonical CSV (the Go transport normally hides this; go direct).
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/curves/"+key.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := core.ReadCSV(zr)
	if err != nil {
		t.Fatalf("gzip body does not decode to curves: %v", err)
	}
	if fam.Label != "gzip" {
		t.Fatalf("label = %q", fam.Label)
	}
}
