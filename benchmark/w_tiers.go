package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

// Closed-loop clients of the tier mix: the callers of this system each
// wait for their reply, and the sandbox has two cores.
const tierClients = 2

// One write rides beside every eight reads, so a faster GET path that
// slows PUT (or eviction) shows in the same number.
const readsPerWrite = 8

// tierOp is one step of a client's script: a load of family key, or
// (save) a store of family key's curves under a key never seen before.
type tierOp struct {
	save bool
	key  int
}

// tiersWorkload is curve-tiers: the cache stack with no simulation at all.
// Zipf-popular loads go through a charz service over a disk store (memory
// and disk hits) and through curvestore.Client to an in-process server on
// loopback fronting Tiered(Memory, DiskStore), with saves interleaved.
type tiersWorkload struct {
	fams   []*core.Family // canonical: exactly what a CSV round trip yields
	sums   []float64      // cheap per-family checksum for the timed loop
	hashes []string       // SHA-256 of the canonical CSV, for verify
	reqs   []charz.Request
	keys   []curvestore.Key

	// disk is the one DiskStore under everything: the charz services' disk
	// tier and the tier behind the curve server's memory tier.
	disk    *charz.DiskStore
	hot     int // server memory-tier entries
	scripts [tierClients]struct{ local, remote []tierOp }
	seed    uint64
	iter    int

	last tierIteration
}

// tierIteration is what one iteration measured, kept for the layer metrics.
type tierIteration struct {
	loadMs     map[string][]float64 // by outcome: memory, disk, remote, …
	loads      int
	saves      int
	wallS      float64
	charz      charz.Stats
	server     curvestore.ServerStats
	evictions  int64
	retries    float64
	serverSide map[string][]float64 // traced only: handler ms by "GET 200", "GET 304", "PUT 204"
}

func setupCurveTiers(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "curve-tiers")
	n := cfg.scaled(256, 16)
	w := &tiersWorkload{seed: cfg.seed, hot: n / 4} // working set 4× the hot tier

	// Two real Quick families are the stock; every stored family is a
	// seed-perturbed variant of one of them, so all are distinct and valid.
	opt := bench.QuickOptions()
	opt.Parallelism = 2
	specs := []platform.Spec{zooSpec(), platform.Zen2()}
	specs[1].Cores, specs[1].DRAM.Channels = 8, 2
	var stock []*core.Family
	svc := charz.New(charz.Config{})
	for _, spec := range specs {
		art, err := svc.Characterize(charz.Request{Spec: spec, Options: opt})
		if err != nil {
			return nil, err
		}
		stock = append(stock, art.Family)
	}
	var err error
	if w.disk, err = charz.NewDiskStore(filepath.Join(cfg.dir, "curves")); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		fam := stock[i%len(stock)].Clone()
		fam.Label = fmt.Sprintf("tier family %d/%d", cfg.seed, i)
		bwScale, latScale := r.between(0.8, 1.25), r.between(0.8, 1.25)
		fam.TheoreticalBW *= bwScale
		for ci := range fam.Curves {
			for pi := range fam.Curves[ci].Points {
				fam.Curves[ci].Points[pi].BW *= bwScale
				fam.Curves[ci].Points[pi].Latency *= latScale
			}
		}
		csv := familyCSV(fam)
		canon, err := core.ReadCSV(bytes.NewReader([]byte(csv)))
		if err != nil {
			return nil, fmt.Errorf("perturbed family %d is not a valid curve family: %w", i, err)
		}
		spec := specs[i%len(specs)]
		spec.Name = fam.Label
		req := charz.Request{Spec: spec, Options: opt}
		key := charz.Fingerprint(req)
		w.fams = append(w.fams, canon)
		w.sums = append(w.sums, familySum(canon))
		w.hashes = append(w.hashes, csvHash(canon))
		w.reqs = append(w.reqs, req)
		w.keys = append(w.keys, key)
		if err := w.disk.Save(ctx, key, canon); err != nil {
			return nil, err
		}
	}

	// Each client's script: Zipf-popular loads, one save every ninth op.
	// Popularity ranks are seed-shuffled onto the families. The local phase
	// is kept short: its loads cost microseconds, so at length it would be a
	// file-creation benchmark, and the sandbox's disk (ext4 mounted with
	// online discard) slows down for minutes after thousands of deletes.
	z := newZipf(n, 1.0)
	rank := shuffled(r, seq(n))
	script := func(ops int) []tierOp {
		out := make([]tierOp, ops)
		for i := range out {
			out[i] = tierOp{save: i%(readsPerWrite+1) == readsPerWrite, key: rank[z.draw(r)]}
		}
		return out
	}
	for c := range w.scripts {
		w.scripts[c].local = script(cfg.scaled(1125, 90))
		w.scripts[c].remote = script(cfg.scaled(1350, 45))
	}
	return w, nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// familySum folds a family's points into one float: equal families give
// bit-equal sums, and checking it costs a fraction of a load.
func familySum(f *core.Family) float64 {
	s := f.TheoreticalBW
	for _, c := range f.Curves {
		s += c.ReadRatio
		for _, p := range c.Points {
			s += p.BW + 3*p.Latency
		}
	}
	return s
}

func csvHash(f *core.Family) string {
	h := sha256.Sum256([]byte(familyCSV(f)))
	return hex.EncodeToString(h[:])
}

// freshKey names a save target no earlier iteration or client has used.
func (w *tiersWorkload) freshKey(phase string, client, n int) curvestore.Key {
	h := sha256.New()
	fmt.Fprintf(h, "fresh %s seed=%d iter=%d client=%d", phase, w.seed, w.iter, client)
	binary.Write(h, binary.LittleEndian, int64(n))
	var k curvestore.Key
	h.Sum(k[:0])
	return k
}

// curveServer is an in-process curve server on a loopback port.
type curveServer struct {
	srv  *curvestore.Server
	mem  *curvestore.Memory
	http *http.Server
	url  string
	done chan error
}

func startServer(hot int, disk *charz.DiskStore, wrap func(http.Handler) http.Handler) (*curveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mem := curvestore.NewMemory(hot)
	srv := curvestore.NewServer(curvestore.NewTiered(mem, disk), curvestore.ServerConfig{SaveStore: disk})
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	cs := &curveServer{srv: srv, mem: mem, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { cs.done <- cs.http.Serve(ln) }()
	return cs, nil
}

// stop shuts the server down and waits until its serve loop has returned.
func (cs *curveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := cs.http.Shutdown(ctx)
	if serr := <-cs.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// statusWriter remembers the response code for the traced pass's
// server-side timing.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// newClient builds a curve client with its own connections, so closing
// them leaves nothing of the iteration behind.
func newClient(url string, reg *telemetry.Registry) (*curvestore.Client, *http.Transport, error) {
	tp := &http.Transport{MaxIdleConnsPerHost: 4}
	cl, err := curvestore.NewClient(url, curvestore.ClientConfig{HTTPClient: &http.Client{Transport: tp, Timeout: 30 * time.Second}})
	if err != nil {
		return nil, nil, err
	}
	cl.Instrument(reg)
	return cl, tp, nil
}

func (w *tiersWorkload) iterate(s scope) iterResult {
	var res iterResult
	w.iter++
	it := tierIteration{loadMs: map[string][]float64{}}
	ctx := context.Background()
	t0 := time.Now()

	// Any simulation here would mean a key missed every tier.
	var simulated atomic.Int64
	svc := charz.New(charz.Config{
		Store: w.disk, Telemetry: s.tel,
		Run: func(context.Context, platform.Spec, bench.Options) (*bench.Result, error) {
			simulated.Add(1)
			return nil, errors.New("curve-tiers must never simulate")
		},
	})
	var wrap func(http.Handler) http.Handler
	var sideMu sync.Mutex
	if s.traced() {
		it.serverSide = map[string][]float64{}
		wrap = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				sw := &statusWriter{ResponseWriter: rw, code: http.StatusOK}
				ms := timeMs(func() { next.ServeHTTP(sw, r) })
				class := fmt.Sprintf("%s %d", r.Method, sw.code)
				sideMu.Lock()
				it.serverSide[class] = append(it.serverSide[class], ms)
				sideMu.Unlock()
			})
		}
	}
	var cs *curveServer
	var err error
	s.span("curvestore", "server start", func(scope) { cs, err = startServer(w.hot, w.disk, wrap) })
	res.check(err == nil, "starting the curve server: %v", err)
	if err != nil {
		return res
	}
	reg := telemetry.NewRegistry()

	type clientResult struct {
		res    iterResult
		loadMs map[string][]float64
		loads  int
		saves  int
		fresh  []curvestore.Key // saved keys, by store, for cleanup
	}
	out := make([]clientResult, tierClients)
	var wg sync.WaitGroup
	for c := 0; c < tierClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &out[c]
			cr.loadMs = map[string][]float64{}
			cs2 := s.client(c)
			load := func(layer, name string, f func() (*core.Family, string, error), want int) {
				var fam *core.Family
				var outcome string
				var err error
				t := time.Now()
				cs2.span(layer, name, func(scope) { fam, outcome, err = f() })
				ms := float64(time.Since(t).Nanoseconds()) / 1e6
				cr.loads++
				cr.res.ops++
				ok := err == nil && fam != nil && familySum(fam) == w.sums[want] && fam.Label == w.fams[want].Label
				cr.res.check(ok, "%s of family %d returned the wrong curves (%v)", name, want, err)
				cr.loadMs[outcome] = append(cr.loadMs[outcome], ms)
			}
			save := func(layer, name string, st curvestore.Store, key curvestore.Key, idx int) {
				var err error
				cs2.span(layer, name, func(scope) { err = st.Save(ctx, key, w.fams[idx]) })
				cr.saves++
				cr.res.ops++
				cr.res.check(err == nil, "%s: %v", name, err)
			}

			for i, op := range w.scripts[c].local {
				if op.save {
					key := w.freshKey("local", c, i)
					cr.fresh = append(cr.fresh, key)
					save("curvestore", "disk save", w.disk, key, op.key)
					continue
				}
				load("charz", "charz load", func() (*core.Family, string, error) {
					art, err := svc.CharacterizeContext(ctx, w.reqs[op.key])
					if err != nil {
						return nil, "error", err
					}
					return art.Family, art.Source.String(), nil
				}, op.key)
			}

			cl, tp, err := newClient(cs.url, reg)
			cr.res.check(err == nil, "curve client: %v", err)
			if err != nil {
				return
			}
			defer tp.CloseIdleConnections()
			for i, op := range w.scripts[c].remote {
				if op.save {
					key := w.freshKey("remote", c, i)
					cr.fresh = append(cr.fresh, key)
					save("curvestore", "remote save", cl, key, op.key)
					continue
				}
				load("curvestore", "remote load", func() (*core.Family, string, error) {
					fam, ok, err := cl.Load(ctx, w.keys[op.key])
					if err == nil && !ok {
						err = errors.New("miss")
					}
					return fam, "remote", err
				}, op.key)
			}
		}(c)
	}
	wg.Wait()

	it.server = cs.srv.Stats()
	it.evictions = cs.mem.Evictions()
	s.span("curvestore", "server stop", func(scope) { err = cs.stop() })
	res.check(err == nil, "stopping the curve server: %v", err)
	it.wallS = time.Since(t0).Seconds()
	it.charz = svc.Stats()
	it.retries = reg.Snapshot()["mess_curve_client_retries_total"]

	var fresh []curvestore.Key
	for _, cr := range out {
		res.merge(cr.res)
		it.loads += cr.loads
		it.saves += cr.saves
		fresh = append(fresh, cr.fresh...)
		for k, v := range cr.loadMs {
			it.loadMs[k] = append(it.loadMs[k], v...)
		}
	}
	res.check(simulated.Load() == 0, "%d requests fell through to simulation", simulated.Load())
	res.check(it.server.Misses == 0, "the curve server reported %d misses", it.server.Misses)
	// The counts are a function of the scripts alone; they are the digest.
	d := newDigester()
	d.add("loads=%d saves=%d disk=%d memory=%d hits=%d reval=%d puts=%d",
		it.loads, it.saves, it.charz.DiskHits, it.charz.MemoryHits, it.server.Hits, it.server.Revalidations, it.server.Puts)
	res.digest = d.sum()
	w.last = it

	// Every iteration must find the stores as set-up left them.
	res.cleanup = func() {
		for _, key := range fresh {
			os.Remove(w.disk.Path(key))
		}
	}
	return res
}

// verify loads every family once from each persistent tier and compares
// the SHA-256 of its canonical CSV with what set-up saved.
func (w *tiersWorkload) verify() iterResult {
	var res iterResult
	ctx := context.Background()
	cs, err := startServer(w.hot, w.disk, nil)
	res.check(err == nil, "starting the curve server: %v", err)
	if err != nil {
		return res
	}
	defer cs.stop()
	cl, tp, err := newClient(cs.url, nil)
	res.check(err == nil, "curve client: %v", err)
	if err != nil {
		return res
	}
	defer tp.CloseIdleConnections()
	for i, key := range w.keys {
		for name, st := range map[string]curvestore.Store{"disk": w.disk, "remote": cl} {
			fam, ok, err := st.Load(ctx, key)
			res.check(err == nil && ok && csvHash(fam) == w.hashes[i],
				"family %d from the %s tier does not hash to what was saved (%v)", i, name, err)
		}
	}
	return res
}

func (w *tiersWorkload) close() error {
	return os.RemoveAll(w.disk.Dir())
}

func (w *tiersWorkload) layers(t *tracedRun, m layerMetrics) {
	it := w.last
	var all []float64
	for _, v := range it.loadMs {
		all = append(all, v...)
	}
	m["curvestore.load_ms_p50"] = median(all)
	m["curvestore.load_ms_p90"] = percentile(all, 90)
	m["curvestore.loads_per_s"] = float64(it.loads) / it.wallS
	m["curvestore.saves_per_s"] = float64(it.saves) / it.wallS
	m["charz.mem_hit_us"] = 1e3 * median(it.loadMs["memory"])
	m["charz.disk_hit_ms"] = median(it.loadMs["disk"])
	m["charz.runs"] = float64(it.charz.Runs)
	m["charz.mem_hits"] = float64(it.charz.MemoryHits)
	m["charz.disk_hits"] = float64(it.charz.DiskHits)
	m["charz.fingerprint_us"] = nsPer(200, func() {
		for i := 0; i < 200; i++ {
			charz.Fingerprint(w.reqs[i%len(w.reqs)])
		}
	}) / 1e3

	m["curvestore.server_get_ms_p50"] = median(it.serverSide["GET 200"])
	m["curvestore.server_get_ms_p99"] = percentile(it.serverSide["GET 200"], 99)
	m["curvestore.server_304_ms_p50"] = median(it.serverSide["GET 304"])
	m["curvestore.server_put_ms_p50"] = median(it.serverSide["PUT 204"])
	m["curvestore.server_put_ms_p99"] = percentile(it.serverSide["PUT 204"], 99)
	m["curvestore.bytes_out"] = float64(it.server.BytesOut)
	m["curvestore.hits"] = float64(it.server.Hits)
	m["curvestore.misses"] = float64(it.server.Misses)
	m["curvestore.revalidations"] = float64(it.server.Revalidations)
	m["curvestore.put_dedups"] = float64(it.server.PutDedups)
	m["curvestore.evictions"] = float64(it.evictions)
	m["curvestore.client_retries"] = it.retries

	// The single tiers, driven alone.
	ctx := context.Background()
	n := len(w.keys)
	memTier := curvestore.NewMemory(0)
	m["curvestore.memory_save_us"] = nsPer(n, func() {
		for i, key := range w.keys {
			_ = memTier.Save(ctx, key, w.fams[i]) // the memory tier cannot fail
		}
	}) / 1e3
	m["curvestore.memory_load_us"] = nsPer(n, func() {
		for _, key := range w.keys {
			memTier.Load(ctx, key)
		}
	}) / 1e3
	m["curvestore.disk_load_ms"] = nsPer(n, func() {
		for _, key := range w.keys {
			w.disk.Load(ctx, key)
		}
	}) / 1e6
	scratch, err := charz.NewDiskStore(filepath.Join(w.disk.Dir(), "..", "calibration"))
	if err == nil {
		m["curvestore.disk_save_ms"] = nsPer(n, func() {
			for i, key := range w.keys {
				_ = scratch.Save(ctx, key, w.fams[i]) // a failed save only shows as a fast one
			}
		}) / 1e6
		os.RemoveAll(scratch.Dir())
	}

	// One cold pass over every key through a fresh server and client: the
	// wire compression ratio, and what a charz remote hit costs.
	if cs, err := startServer(w.hot, w.disk, nil); err == nil {
		if cl, tp, err := newClient(cs.url, nil); err == nil {
			svc := charz.New(charz.Config{Remote: cl})
			var ms []float64
			var csvBytes int
			for i, req := range w.reqs {
				ms = append(ms, timeMs(func() { svc.CharacterizeContext(ctx, req) }))
				csvBytes += len(familyCSV(w.fams[i]))
			}
			m["charz.remote_hit_ms"] = median(ms)
			m["charz.remote_hits"] = float64(svc.Stats().RemoteHits)
			if out := cs.srv.Stats().BytesOut; out > 0 {
				m["curvestore.gzip_ratio"] = float64(csvBytes) / float64(out)
			}
			tp.CloseIdleConnections()
		}
		cs.stop()
	}

	few := w.fams
	if len(few) > 64 {
		few = few[:64]
	}
	csvLayers(m, few)
	interpLayer(m, w.fams[0])
}
