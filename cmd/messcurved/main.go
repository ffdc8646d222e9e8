// Command messcurved serves a fleet-shared Mess curve store over HTTP, so
// every machine in a fleet — CI runners, developer laptops, simulation
// farms — performs each characterization once globally instead of once per
// machine. Curve families are content-addressed by their charz fingerprint
// and immutable, which makes the server a pure cache: no invalidation, no
// coordination, and losing it costs a re-simulation, never correctness.
//
// # Usage
//
// Start a server fronting a (sharded, optionally size-bounded) on-disk
// store, with an in-memory hot tier in front of it:
//
//	messcurved -addr :9400 -dir /var/cache/mess-curves -max-mb 4096
//
// Point the tools at it with -cache-url, or fleet-wide with the
// MESS_CURVE_URL environment variable (a down server is fail-soft: the
// tools silently fall back to their local tiers):
//
//	messexp -run all -cache-url http://curves.internal:9400
//	export MESS_CURVE_URL=http://curves.internal:9400
//	messbench -platform "Intel Skylake"
//
// # Protocol
//
//	GET  /v1/curves/{key}   curve family as release-format CSV
//	                        (gzip when accepted; strong ETag; 304 on
//	                        If-None-Match; 404 when absent)
//	PUT  /v1/curves/{key}   upload a family (gzip accepted; the
//	                        Content-SHA256 header, when present, is
//	                        verified against the decompressed CSV;
//	                        concurrent PUTs of one key are collapsed by
//	                        per-key singleflight)
//	GET  /v1/stats          JSON counters: hits, misses, revalidations,
//	                        puts, put_dedups, bad_puts, bytes_in,
//	                        bytes_out, store_bytes, evictions
//	GET  /healthz           liveness probe
//
// {key} is the 64-digit lowercase-hex charz fingerprint. The same CSVs are
// valid messbench/messexp artifacts, so a store directory can be inspected
// (or seeded) with ordinary files.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
//
// # Failure modes
//
// The store is a pure content-addressed cache, so every failure degrades to
// a re-simulation on some client — never to a wrong curve. The modes worth
// knowing when operating one:
//
//   - Server down or unreachable: clients fail soft. Each tool treats a
//     remote error as a miss, falls back to its local tiers, re-simulates
//     if it must, and trips a short client-side circuit breaker so a dead
//     server is not re-dialled on every lookup.
//   - Slow or stalled peers: ReadHeaderTimeout/ReadTimeout bound how long a
//     client may take to deliver a request, WriteTimeout bounds a download,
//     and IdleTimeout reaps idle keep-alive connections — a misbehaving
//     peer costs one connection for minutes, not a goroutine forever.
//   - Corrupt upload: the Content-SHA256 header (sent by the Go client) is
//     verified against the decompressed CSV and a mismatch is rejected with
//     422 before anything is stored; unparsable CSV is rejected the same
//     way. Corruption on the wire cannot enter the store.
//   - Corrupt download: clients verify the body against the strong ETag
//     (the hex SHA-256 of the canonical CSV) and treat a mismatch as a
//     miss, then repair the entry by re-uploading the re-simulated family.
//   - Corrupt entry on disk: an unreadable file is quarantined (renamed
//     *.bad) on first load, so the key reads as a clean miss and heals via
//     the next upload; quarantined and orphaned temp files older than an
//     hour are swept by the size-bound GC.
//   - Client gives up mid-upload: the decoded family is persisted under a
//     detached context, so concurrent uploaders of the same key (collapsed
//     by singleflight) still observe the completed save.
//   - Crash mid-write: entries are written to a temp file and renamed into
//     place, so a torn write leaves only a *.tmp orphan, never a half
//     entry under a valid key.
//
// # Metrics
//
// GET /metrics exposes the server's counters in Prometheus text format.
// The store counters mirror /v1/stats under stable metric names:
//
//	mess_curved_hits_total            GETs answered from the store
//	mess_curved_misses_total          GETs answered 404
//	mess_curved_revalidations_total   GETs answered 304 via If-None-Match
//	mess_curved_puts_total            uploads persisted
//	mess_curved_put_dedups_total      uploads collapsed by singleflight
//	mess_curved_bad_puts_total        uploads rejected (422)
//	mess_curved_bytes_in_total        request body bytes (decompressed)
//	mess_curved_bytes_out_total       response body bytes
//	mess_curved_store_bytes           on-disk store size (gauge)
//	mess_curved_store_evictions       LRU evictions so far (gauge)
//
// plus HTTP-level series from the middleware: mess_curved_request_seconds
// (latency histogram) and mess_curved_inflight_requests (gauge). Scraping
// /metrics is read-only and allocation-light; pointing a Prometheus at a
// production curve server is the intended way to watch fleet hit rates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/curvestore"
)

func main() {
	var (
		addr    = flag.String("addr", ":9400", "listen address")
		dir     = flag.String("dir", "mess-curves", "curve store directory (created if needed; sharded by key prefix)")
		maxMB   = flag.Int("max-mb", 0, "bound the on-disk store size in MiB (0 = unbounded); LRU eviction")
		hot     = flag.Int("hot-entries", 256, "in-memory hot-tier entries in front of the disk store (0 disables)")
		maxBody = flag.Int64("max-body-mb", 64, "largest accepted upload in MiB (after decompression)")
	)
	tel := cli.TelemetryFlags()
	flag.Parse()

	disk, err := charz.NewDiskStore(*dir)
	if err != nil {
		cli.Fatal(err)
	}
	if *maxMB > 0 {
		disk.SetMaxBytes(int64(*maxMB) << 20)
	}

	// The serving store is the canonical memory → disk tier order: hot
	// families are answered without touching disk, and disk hits are
	// promoted into the hot tier.
	var store curvestore.Store = disk
	if *hot > 0 {
		store = curvestore.NewTiered(curvestore.NewMemory(*hot), disk)
	}

	logger := log.New(os.Stderr, "messcurved: ", log.LstdFlags)
	slogger := tel.Set().Logger()
	cfg := curvestore.ServerConfig{
		MaxBodyBytes: *maxBody << 20,
		// Uploads persist straight to disk — a 204 always means durably
		// stored; the hot tier fills on first GET via promotion.
		SaveStore:  disk,
		StatsStore: disk,
	}
	if tel.Verbose {
		cfg.Log = logger
	}
	curved := curvestore.NewServer(store, cfg)

	// /metrics re-exports the server's request and store counters in
	// Prometheus text format (see "# Metrics" above); everything else goes
	// through the latency/in-flight middleware to the store handler.
	reg := tel.Set().Registry()
	curved.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", curvestore.Instrumented(reg, curved))

	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// Slow-client armour (see "Failure modes" above): a stalled or
		// malicious peer must never pin a handler goroutine forever. The
		// read/write budgets are generous — a full-sweep family is a few MiB
		// of CSV — and the client retries on failure, so cutting a
		// glacially-slow transfer costs one retry, not correctness.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slogger.Info("serving curve store", "dir", disk.Dir(), "addr", *addr, "hot_entries", *hot)

	select {
	case err := <-errc:
		cli.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight GET/PUTs, then exit. A second
	// signal aborts via the context already being cancelled.
	slogger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Fatal(fmt.Errorf("shutdown: %w", err))
	}
	slogger.Info("bye")
}
