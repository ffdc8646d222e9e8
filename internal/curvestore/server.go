package curvestore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mess-sim/mess/internal/core"
)

// ServerConfig parameterizes a curve server. The zero value is usable.
type ServerConfig struct {
	// SaveStore, when set, is where uploads are persisted instead of the
	// serving store. When the serving store is Tiered(memory, disk), a
	// PUT through the tiered front would "succeed" into the bounded
	// memory tier even with the disk broken — acknowledging durability
	// the server does not have. Saving straight to the disk tier makes a
	// failed disk a 500, never a silent 204; the hot tier fills on first
	// GET via tiered promotion. Default: the serving store.
	SaveStore Store
}

// maxBodyBytes bounds an uploaded CSV (after decompression): 64 MiB,
// orders of magnitude above any real curve family.
const maxBodyBytes = 64 << 20

// Server is the HTTP handler of the remote curve store. The protocol is
// deliberately tiny and content-addressed:
//
//	GET  /v1/curves/{key}  → 200 text/csv (gzip when accepted) | 304 | 404
//	PUT  /v1/curves/{key}  → 204 (stored or already present) | 400 | 422
//
// Keys are 64-digit lowercase hex (charz fingerprints). Every 200 carries
// a strong ETag — the SHA-256 of the canonical CSV — honoured via
// If-None-Match, so revalidating clients pay one round trip and no body.
// Uploads may be gzip-compressed (Content-Encoding: gzip) and, when the
// request carries a Content-SHA256 header (the Client always does), the
// decompressed CSV is verified against it before anything is stored: a
// corrupted or truncated upload is rejected with 422, never persisted.
// Concurrent PUTs of one key are collapsed by per-key singleflight: the
// first writer stores, the rest wait and acknowledge.
type Server struct {
	store  Store
	saveTo Store

	mu       sync.Mutex
	inflight map[Key]*putFlight

	// etags caches each key's strong validator so revalidations (304)
	// answer without loading, cloning, serializing or hashing the family.
	// Entries are content-addressed and immutable, so a cached validator
	// can never go stale; the FIFO bound only limits memory (≈100 B per
	// entry).
	etags *fifoCache[string]

	hits, misses, revalidations atomic.Int64
	puts, putDedups, badPuts    atomic.Int64
	bytesIn, bytesOut           atomic.Int64
}

// putFlight is one in-progress upload of a key: done closes when the
// winning writer finished, after which err is immutable — waiters read it
// instead of round-tripping through the store to learn the outcome.
type putFlight struct {
	done chan struct{}
	err  error
}

// etagCacheEntries bounds the validator cache.
const etagCacheEntries = 1 << 14

// NewServer builds the handler fronting store — typically a Tiered
// memory→disk composition, so hot families are served without touching
// disk.
func NewServer(store Store, cfg ServerConfig) *Server {
	s := &Server{
		store:    store,
		saveTo:   cfg.SaveStore,
		inflight: map[Key]*putFlight{},
		etags:    newFIFOCache[string](etagCacheEntries),
	}
	if s.saveTo == nil {
		s.saveTo = store
	}
	return s
}

// ServerStats are the server's cumulative counters.
type ServerStats struct {
	// Hits counts GETs served with curve data (200 and 304 alike);
	// Revalidations is the 304 subset, served without a body.
	Hits          int64
	Misses        int64
	Revalidations int64
	// Puts counts stored uploads; PutDedups counts concurrent duplicate
	// uploads collapsed by singleflight; BadPuts counts rejected ones
	// (bad key, unparsable CSV, Content-SHA256 mismatch).
	Puts      int64
	PutDedups int64
	BadPuts   int64
	// BytesOut / BytesIn count curve payload bytes on the wire (after /
	// before compression).
	BytesIn  int64
	BytesOut int64
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Revalidations: s.revalidations.Load(),
		Puts:          s.puts.Load(),
		PutDedups:     s.putDedups.Load(),
		BadPuts:       s.badPuts.Load(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/curves/"):
		rest := strings.TrimPrefix(r.URL.Path, "/v1/curves/")
		key, err := ParseKey(rest)
		if err != nil {
			if r.Method == http.MethodPut {
				s.badPuts.Add(1)
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			s.get(w, r, key)
		case http.MethodPut:
			s.put(w, r, key)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	default:
		http.NotFound(w, r)
	}
}

// errUploadAborted marks a put flight whose winner bailed before storing
// (bad body, digest mismatch, store failure).
var errUploadAborted = errors.New("curvestore: upload aborted")

// etagFor is the strong validator for a family: the SHA-256 of its
// canonical CSV serialization.
func etagFor(csv []byte) string {
	sum := sha256.Sum256(csv)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, key Key) {
	// Revalidation fast path: entries are immutable, so a match against
	// the cached validator is authoritative without touching the store —
	// and remains correct even if the entry was since GC'd (the client's
	// copy cannot have gone stale, only absent).
	if match := r.Header.Get("If-None-Match"); match != "" {
		if etag, ok := s.etags.get(key); ok && etagMatches(match, etag) {
			s.hits.Add(1)
			s.revalidations.Add(1)
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	fam, ok, err := s.store.Load(r.Context(), key)
	if err != nil || !ok {
		// Fail-soft on the serving side too: a corrupt entry reads as a
		// miss, and the client re-simulates (and re-uploads) it.
		s.misses.Add(1)
		http.Error(w, "unknown curve key", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := fam.WriteCSV(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	etag := etagFor(buf.Bytes())
	s.etags.put(key, etag)
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if match := r.Header.Get("If-None-Match"); etagMatches(match, etag) {
		s.hits.Add(1)
		s.revalidations.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.hits.Add(1)
	if r.Method == http.MethodHead {
		return
	}
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		cw := &countWriter{w: w}
		gzipTo(cw, buf.Bytes())
		s.bytesOut.Add(cw.n)
	} else {
		n, _ := w.Write(buf.Bytes())
		s.bytesOut.Add(int64(n))
	}
}

// etagMatches implements the subset of If-None-Match the Client emits: a
// single strong validator or a comma-separated list, plus "*".
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, key Key) {
	// Per-key singleflight: the first concurrent writer for a key stores
	// it, the rest wait for the outcome and acknowledge without touching
	// the store — content addressing guarantees their payloads agree.
	s.mu.Lock()
	if f, busy := s.inflight[key]; busy {
		s.putDedups.Add(1)
		s.mu.Unlock()
		<-f.done
		if f.err == nil {
			w.Header().Set("X-Curve-Dedup", "1")
			w.WriteHeader(http.StatusNoContent)
		} else {
			// The winning upload failed; this waiter's body was never
			// stored either, so ask it to retry.
			http.Error(w, "concurrent upload failed, retry", http.StatusServiceUnavailable)
		}
		return
	}
	flight := &putFlight{done: make(chan struct{})}
	// Until the winner succeeds, the flight reads as failed — an early
	// return on any of the validation paths below tells waiters to retry.
	flight.err = errUploadAborted
	s.inflight[key] = flight
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(flight.done)
	}()

	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		s.badPuts.Add(1)
		http.Error(w, "reading upload: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.bytesIn.Add(int64(len(raw)))
	csv := raw
	if strings.Contains(r.Header.Get("Content-Encoding"), "gzip") {
		csv, err = gunzip(bytes.NewReader(raw), maxBodyBytes+1)
		if err != nil {
			s.badPuts.Add(1)
			http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(csv) > maxBodyBytes {
			s.badPuts.Add(1)
			http.Error(w, "decompressed body too large", http.StatusRequestEntityTooLarge)
			return
		}
	}
	// Content-SHA verification: the digest declared by the uploader must
	// match the decompressed CSV, so a payload corrupted or truncated in
	// transit is rejected rather than stored under a key it does not
	// belong to. (The key itself fingerprints the characterization
	// request, not the CSV bytes, so the digest rides in a header.)
	if declared := r.Header.Get("Content-SHA256"); declared != "" {
		sum := sha256.Sum256(csv)
		if !strings.EqualFold(declared, hex.EncodeToString(sum[:])) {
			s.badPuts.Add(1)
			http.Error(w, "Content-SHA256 mismatch", http.StatusUnprocessableEntity)
			return
		}
	}
	fam, err := core.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		s.badPuts.Add(1)
		http.Error(w, "bad curve CSV: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Persist to the durable save store (see ServerConfig.SaveStore): a
	// failed disk must surface as a 500, not be masked by a bounded
	// memory tier accepting the family.
	// The body is fully received and verified by now, and singleflight
	// waiters are counting on this write — so it proceeds even if the
	// uploader disconnects (WithoutCancel), like any committed upload.
	if err := s.saveTo.Save(context.WithoutCancel(r.Context()), key, fam); err != nil {
		http.Error(w, "storing curves: "+err.Error(), http.StatusInternalServerError)
		return
	}
	flight.err = nil
	s.puts.Add(1)
	// Re-serialize for the ETag so it always names the canonical form the
	// next GET will serve.
	var canon bytes.Buffer
	if err := fam.WriteCSV(&canon); err == nil {
		etag := etagFor(canon.Bytes())
		s.etags.put(key, etag)
		w.Header().Set("ETag", etag)
	}
	w.WriteHeader(http.StatusNoContent)
}
