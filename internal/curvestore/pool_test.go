package curvestore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/mess-sim/mess/internal/core"
)

// The pooled codecs carry state from one message to the next, so these
// tests send several messages through each and check every one against a
// codec made for it alone.

// poolFam is a family the size of a characterization's, in the canonical
// form a CSV round trip yields, with its CSV.
func poolFam(t *testing.T, label string) (*core.Family, []byte) {
	t.Helper()
	var csv bytes.Buffer
	if err := core.NewSynthetic(core.SyntheticSpec{Label: label, PeakGBs: 128}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	fam, err := core.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return fam, csv.Bytes()
}

// freshGzip is what a new gzip.Writer writes for p.
func freshGzip(t *testing.T, p []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// putRequest is the upload Client.Save makes of csv, gzipped as body.
func putRequest(key Key, csv, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPut, "/v1/curves/"+key.String(), bytes.NewReader(body))
	sum := sha256.Sum256(csv)
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set("Content-SHA256", hex.EncodeToString(sum[:]))
	return req
}

func gzipGetRequest(key Key) *http.Request {
	req := httptest.NewRequest(http.MethodGet, "/v1/curves/"+key.String(), nil)
	req.Header.Set("Accept-Encoding", "gzip")
	return req
}

// Every gzip body on the wire — a GET's 200 and a Client.Save upload — is
// byte for byte what a fresh writer writes, however often the pooled
// writers were reused: the ETags, bytes_out and the wire ratio depend on it.
func TestPoolGzipBodiesMatchFreshWriter(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	uploads := map[Key][]byte{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			key, _ := ParseKey(r.URL.Path[len("/v1/curves/"):])
			uploads[key] = body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl := fastClient(t, ts.URL)

	for i := 0; i < 4; i++ {
		key := testKey(100 + i)
		fam, csv := poolFam(t, fmt.Sprintf("pool %d", i))
		want := freshGzip(t, csv)
		if err := cl.Save(bg, key, fam); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(uploads[key], want) {
			t.Fatalf("upload %d: %d bytes differ from a fresh writer's %d", i, len(uploads[key]), len(want))
		}
		for j := 0; j < 2; j++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, gzipGetRequest(key))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
				t.Fatalf("GET %d: %d, Content-Encoding %q", i, rec.Code, rec.Header().Get("Content-Encoding"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET %d: %d bytes differ from a fresh writer's %d", i, rec.Body.Len(), len(want))
			}
		}
	}
}

// A reader that last saw a corrupt body — a bad header, a truncated stream,
// a wrong checksum — decodes the next good one, on the server's upload path
// and on the client's download path alike.
func TestPoolReaderRecoversAfterCorruptBody(t *testing.T) {
	fam, csv := poolFam(t, "pool reader")
	good := freshGzip(t, csv)
	flipped := bytes.Clone(good)
	flipped[len(flipped)-5] ^= 0xff // CRC-32 trailer
	corrupt := map[string][]byte{
		"bad header": append([]byte("not gzip"), good...),
		"truncated":  good[:len(good)/2],
		"checksum":   flipped,
	}

	srv := NewServer(NewMemory(0), ServerConfig{})
	for name, body := range corrupt {
		key := testKey(110)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, putRequest(key, csv, body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s upload: %d, want %d", name, rec.Code, http.StatusBadRequest)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, putRequest(key, csv, good))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("good upload after a %s one: %d: %s", name, rec.Code, rec.Body.String())
		}
	}

	var serve []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Write(serve)
	}))
	defer ts.Close()
	cl, err := NewClient(ts.URL, ClientConfig{Retries: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range corrupt {
		serve = body
		if _, ok, err := cl.Load(bg, testKey(111)); err == nil || ok {
			t.Fatalf("%s download: ok %v, err %v", name, ok, err)
		}
		serve = good
		got, ok, err := cl.Load(bg, testKey(111))
		if err != nil || !ok {
			t.Fatalf("good download after a %s one: ok %v, err %v", name, ok, err)
		}
		if got.Label != fam.Label || len(got.Curves) != len(fam.Curves) {
			t.Fatalf("good download after a %s one decoded to %q with %d curves", name, got.Label, len(got.Curves))
		}
	}
}

// maxBytesPerRequest bounds what a GET 200 or a PUT of a characterization-
// sized family allocates. A new gzip writer alone allocates about 0.8 MiB.
const maxBytesPerRequest = 128 << 10

// A GET and a PUT allocate a few copies of the CSV, not a codec's state.
// The bound holds the median request: under the race detector, sync.Pool
// drops a quarter of what it is given back, so some requests build a codec.
func TestPoolBoundsBytesPerRequest(t *testing.T) {
	srv := NewServer(NewMemory(0), ServerConfig{})
	key := testKey(120)
	_, csv := poolFam(t, "pool bytes")
	body := freshGzip(t, csv)
	put := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, putRequest(key, csv, body))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("PUT: %d: %s", rec.Code, rec.Body.String())
		}
	}
	get := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, gzipGetRequest(key))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET: %d", rec.Code)
		}
	}
	put()
	get()

	// No GC while measuring: it would empty the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, f := range map[string]func(){"GET": get, "PUT": put} {
		var per [31]uint64
		var before, after runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			per[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(per[:])
		if med := per[len(per)/2]; med > maxBytesPerRequest {
			t.Errorf("%s allocates %d bytes in the median request, over %d", name, med, maxBytesPerRequest)
		} else {
			t.Logf("%s allocates %d bytes in the median request", name, med)
		}
	}
}
