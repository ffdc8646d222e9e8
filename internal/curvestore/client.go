package curvestore

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/telemetry"
)

// ErrUnavailable reports that the remote store is in its failure cooldown:
// a recent request exhausted its retries, so the client short-circuits
// instead of paying the timeout again. Callers composing tiers treat it
// like any other tier error — a miss.
var ErrUnavailable = errors.New("curvestore: remote store unavailable (cooling down)")

// ClientConfig parameterizes a remote-store client. The zero value is
// usable: sane timeouts, two retries with doubling backoff, a 15 s failure
// cooldown and a 128-entry revalidation cache.
type ClientConfig struct {
	// HTTPClient overrides the underlying HTTP client (test seam, custom
	// transports). Default: a client with a 30 s request timeout.
	HTTPClient *http.Client
	// Retries is how many times a failed request (transport error or 5xx)
	// is retried after the first attempt. Default 2; negative disables.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt.
	// Default 100 ms.
	Backoff time.Duration
	// Cooldown opens the fail-soft circuit after a request exhausts its
	// retries: until it elapses, Load reports a silent miss and Save
	// reports ErrUnavailable, so a down server costs one timeout — not one
	// per characterization. Default 15 s; negative disables the circuit.
	Cooldown time.Duration
}

// Client is a Store backed by a curve server (Server) speaking the
// content-addressed HTTP protocol: GET/PUT /v1/curves/{key} with gzip
// bodies, ETag/If-None-Match revalidation and Content-SHA256 upload
// verification.
//
// The client is built to be composed as the outermost (most expensive)
// tier and to degrade rather than fail: requests retry with bounded
// backoff, and once a request exhausts its retries the circuit opens for
// Cooldown — every call in that window is an instant miss. A fleet whose
// curve server is down therefore falls back to local tiers (or
// re-simulation) with no error and almost no added latency.
type Client struct {
	base     string // scheme://host[:port], no trailing slash
	hc       *http.Client
	retries  int
	backoff  time.Duration
	cooldown time.Duration

	mu        sync.Mutex
	downUntil time.Time
	reval     *fifoCache[revalEntry]

	// Telemetry counters, attached by Instrument; nil (no-op) otherwise.
	mLoads, mSaves, mHits, mRetries, mTrips, mShorted *telemetry.Counter
}

// revalidateEntries bounds the ETag revalidation cache: families the client
// has already transferred are re-requested with If-None-Match and served
// locally on 304.
const revalidateEntries = 128

type revalEntry struct {
	etag string
	fam  *core.Family
}

// NewClient builds a client for the curve server at baseURL (e.g.
// "http://127.0.0.1:9400"). The URL must name an http or https
// server; a malformed URL is a configuration error, reported loudly —
// fail-soft applies to the server being down, not to a bad flag.
func NewClient(baseURL string, cfg ClientConfig) (*Client, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("curvestore: remote URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("curvestore: remote URL %q must be http(s)://host[:port]", baseURL)
	}
	c := &Client{
		base:     u.String(),
		hc:       cfg.HTTPClient,
		retries:  cfg.Retries,
		backoff:  cfg.Backoff,
		cooldown: cfg.Cooldown,
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: 30 * time.Second}
	}
	if c.retries == 0 {
		c.retries = 2
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff == 0 {
		c.backoff = 100 * time.Millisecond
	}
	if c.cooldown == 0 {
		c.cooldown = 15 * time.Second
	} else if c.cooldown < 0 {
		c.cooldown = 0
	}
	c.reval = newFIFOCache[revalEntry](revalidateEntries)
	return c, nil
}

// Instrument attaches client-side metrics to c: requests, hits, retries
// and the fail-soft circuit's trips and short circuits. Counters are
// nil-safe, so an uninstrumented client pays a nil check per event.
func (c *Client) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mLoads = reg.Counter(`mess_curve_client_requests_total{op="load"}`)
	c.mSaves = reg.Counter(`mess_curve_client_requests_total{op="save"}`)
	c.mHits = reg.Counter("mess_curve_client_hits_total")
	c.mRetries = reg.Counter("mess_curve_client_retries_total")
	c.mTrips = reg.Counter("mess_curve_client_circuit_trips_total")
	c.mShorted = reg.Counter("mess_curve_client_short_circuits_total")
	reg.GaugeFunc("mess_curve_client_circuit_open", func() float64 {
		if c.CircuitOpen() {
			return 1
		}
		return 0
	})
}

func (c *Client) urlFor(key Key) string { return c.base + "/v1/curves/" + key.String() }

// Load fetches the family for key from the server. A 404 and an open
// circuit both read as a clean miss; transport failures and 5xx responses
// are retried, then trip the circuit and surface as a tier error (which a
// Tiered composition — and charz — treats as a miss). When the response
// carries the server's strong ETag (the SHA-256 of the canonical CSV) the
// body is verified against it before being trusted: a corrupted or
// truncated transfer reads as a tier error, never as wrong curves.
func (c *Client) Load(ctx context.Context, key Key) (*core.Family, bool, error) {
	if c.CircuitOpen() {
		c.mShorted.Inc()
		return nil, false, nil
	}
	c.mLoads.Inc()
	etag, cached := c.revalGet(key)
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urlFor(key), nil)
		if err != nil {
			return nil, err
		}
		if cached != nil && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req, nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("curvestore: remote load %s: %w", key.Short(), err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		// The transport handles Content-Encoding: gzip transparently.
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, fmt.Errorf("curvestore: remote load %s: reading body: %w", key.Short(), err)
		}
		respETag := resp.Header.Get("ETag")
		if err := verifyBody(body, respETag); err != nil {
			return nil, false, fmt.Errorf("curvestore: remote load %s: %w", key.Short(), err)
		}
		fam, err := core.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return nil, false, fmt.Errorf("curvestore: remote load %s: %w", key.Short(), err)
		}
		c.revalPut(key, respETag, fam)
		c.mHits.Inc()
		return fam, true, nil
	case http.StatusNotModified:
		if cached == nil {
			// An unsolicited 304 (we sent no If-None-Match): a confused
			// server or intermediary. Fail-soft, like any broken tier.
			return nil, false, fmt.Errorf("curvestore: remote load %s: unsolicited 304", key.Short())
		}
		c.mHits.Inc()
		return cached.Clone(), true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("curvestore: remote load %s: server returned %s", key.Short(), resp.Status)
	}
}

// Save uploads the family under key: a gzip-compressed PUT carrying a
// Content-SHA256 digest of the uncompressed CSV, which the server verifies
// before storing. Like Load, it retries transient failures and opens the
// circuit when they persist.
func (c *Client) Save(ctx context.Context, key Key, fam *core.Family) error {
	if c.CircuitOpen() {
		c.mShorted.Inc()
		return ErrUnavailable
	}
	c.mSaves.Inc()
	var raw bytes.Buffer
	if err := fam.WriteCSV(&raw); err != nil {
		return fmt.Errorf("curvestore: encoding curves for upload: %w", err)
	}
	sum := sha256.Sum256(raw.Bytes())
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.urlFor(key), bytes.NewReader(gz.Bytes()))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/csv")
		req.Header.Set("Content-Encoding", "gzip")
		req.Header.Set("Content-SHA256", hex.EncodeToString(sum[:]))
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("curvestore: remote save %s: %w", key.Short(), err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("curvestore: remote save %s: server returned %s", key.Short(), resp.Status)
	}
	c.revalPut(key, resp.Header.Get("ETag"), fam)
	return nil
}

// verifyBody checks a downloaded body against the server's strong ETag —
// a quoted SHA-256 of the canonical CSV. An empty or non-digest validator
// (a fronting proxy rewriting ETags) skips the check rather than failing
// it; a digest mismatch is a tier error.
func verifyBody(body []byte, etag string) error {
	digest := strings.Trim(etag, `"`)
	if len(digest) != 2*sha256.Size {
		return nil
	}
	if _, err := hex.DecodeString(digest); err != nil {
		return nil
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != digest {
		return fmt.Errorf("body does not match ETag (corrupt transfer)")
	}
	return nil
}

// do executes one request with bounded retries on transport errors and
// 5xx responses. Retry sleeps use full jitter — uniform in [0, backoff),
// backoff doubling per attempt — so a fleet of clients that miss together
// does not stampede the server in lockstep, and they select on ctx so a
// cancelled caller never waits out a backoff. Exhausting the retries trips
// the fail-soft circuit; caller cancellation does not — the server may be
// perfectly healthy, so the next caller should still try it.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	backoff := c.backoff
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.mRetries.Inc()
			if err := sleepJitter(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				// The request died because the caller cancelled, not because
				// the server failed: report it without tripping the circuit.
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			lastErr = fmt.Errorf("server returned %s", resp.Status)
			continue
		}
		return resp, nil
	}
	c.trip()
	return nil, lastErr
}

// sleepJitter blocks for a uniform duration in [0, max) or until ctx is
// cancelled.
func sleepJitter(ctx context.Context, max time.Duration) error {
	if max <= 0 {
		return ctx.Err()
	}
	d := time.Duration(rand.Int63n(int64(max)))
	if d == 0 {
		return ctx.Err()
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

// CircuitOpen reports whether the fail-soft circuit is open: a recent
// request exhausted its retries and the client is inside its cooldown, so
// calls short-circuit to a miss (Load) or ErrUnavailable (Save).
func (c *Client) CircuitOpen() bool {
	if c.cooldown <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.downUntil)
}

func (c *Client) trip() {
	if c.cooldown <= 0 {
		return
	}
	c.mTrips.Inc()
	c.mu.Lock()
	c.downUntil = time.Now().Add(c.cooldown)
	c.mu.Unlock()
}

// revalGet reports the cached ETag and family for key, if any.
func (c *Client) revalGet(key Key) (string, *core.Family) {
	e, ok := c.reval.get(key)
	if !ok {
		return "", nil
	}
	return e.etag, e.fam
}

// revalPut remembers a private copy of the family and its ETag for future
// If-None-Match revalidation.
func (c *Client) revalPut(key Key, etag string, fam *core.Family) {
	if etag == "" {
		return
	}
	c.reval.put(key, revalEntry{etag: etag, fam: fam.Clone()})
}
