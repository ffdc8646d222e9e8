package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/exp"
)

// wallClockExperiment is the one experiment whose report is host timing,
// so it is left out of digests and of the cold-versus-warm comparison.
const wallClockExperiment = "tablespeed"

// registryWorkload is registry-quick: what `messexp -run all` users wait
// for. The whole registry runs at Quick scale against one environment,
// cold into an empty disk store, then again on a fresh service over the
// same directory; every result is rendered.
type registryWorkload struct {
	order []exp.Experiment // seed order
	dir   string
	iter  int

	last struct {
		coldMs, warmMs, renderMs float64
		expMs                    map[string]float64 // cold pass, by id
		cold, warm               charz.Stats
	}
}

func setupRegistryQuick(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "registry-quick")
	// Scaled down (the warm-up, -smoke) it is the first experiments by ID,
	// whatever the seed: set-up must cost the same for every seed.
	all := exp.All()
	return &registryWorkload{order: shuffled(r, all[:cfg.scaled(len(all), 3)]), dir: cfg.dir}, nil
}

func (w *registryWorkload) iterate(s scope) iterResult {
	var res iterResult
	w.iter++
	dir := filepath.Join(w.dir, fmt.Sprintf("store-%d", w.iter))
	res.cleanup = func() { os.RemoveAll(dir) }
	w.last.expMs = map[string]float64{}
	w.last.renderMs = 0

	pass := func(name string, s scope) (map[string][]byte, charz.Stats) {
		reports := map[string][]byte{}
		store, err := charz.NewDiskStore(dir)
		res.check(err == nil, "opening the %s pass's store: %v", name, err)
		if err != nil {
			return reports, charz.Stats{}
		}
		svc := charz.New(charz.Config{Store: store, Telemetry: s.tel})
		env := exp.NewEnv(exp.Quick, svc)
		for _, e := range w.order {
			var r *exp.Result
			var err error
			ms := timeMs(func() { s.span("exp", "exp "+e.ID, func(scope) { r, err = e.Run(env) }) })
			res.ops++
			res.check(err == nil, "%s pass: experiment %s: %v", name, e.ID, err)
			if err != nil {
				continue
			}
			if name == "cold" {
				w.last.expMs[e.ID] = ms
			}
			var b bytes.Buffer
			w.last.renderMs += timeMs(func() { s.span("plot", "render", func(scope) { err = r.Render(&b) }) })
			res.check(err == nil, "rendering %s: %v", e.ID, err)
			reports[e.ID] = b.Bytes()
		}
		return reports, svc.Stats()
	}

	var cold, warm map[string][]byte
	w.last.coldMs = timeMs(func() {
		s.span(layerHarness, "cold pass", func(s scope) { cold, w.last.cold = pass("cold", s) })
	})
	w.last.warmMs = timeMs(func() {
		s.span(layerHarness, "warm pass", func(s scope) { warm, w.last.warm = pass("warm", s) })
	})

	d := newDigester()
	for _, id := range sortedKeys(cold) {
		if id == wallClockExperiment {
			continue
		}
		res.check(bytes.Equal(cold[id], warm[id]), "%s: the disk-warm report differs from the cold one", id)
		d.add("%s\n%s", id, cold[id])
	}
	res.check(w.last.warm.Runs < w.last.cold.Runs, "the warm pass simulated %d sweeps, the cold one %d",
		w.last.warm.Runs, w.last.cold.Runs)
	res.digest = d.sum()
	return res
}

func (w *registryWorkload) verify() iterResult { return iterResult{} }
func (w *registryWorkload) close() error       { return nil }

// expStragglers are the experiments reported one by one; the rest are
// summed. BENCHMARK.json caps the per-layer list, so it keeps the ones
// that dominate a cold pass and are therefore worth optimising.
var expStragglers = []string{
	"fig2", "fig5", "fig6", "fig6s", "fig7", "fig10", "fig11", "fig12", "fig13", "fig15", "fig16", "table1",
}

func (w *registryWorkload) layers(t *tracedRun, m layerMetrics) {
	sweepLayers(t, m)
	m["exp.cold_pass_ms"] = w.last.coldMs
	m["exp.warm_pass_ms"] = w.last.warmMs
	m["exp.render_ms"] = w.last.renderMs
	rest := 0.0
	for id, ms := range w.last.expMs {
		rest += ms
		for _, s := range expStragglers {
			if s == id {
				m["exp.ms."+id] = ms
				rest -= ms
			}
		}
	}
	m["exp.ms.rest"] = rest
	c := w.last.cold
	m["charz.runs"] = float64(c.Runs)
	m["charz.mem_hits"] = float64(c.MemoryHits)
	m["charz.disk_hits"] = float64(w.last.warm.DiskHits)
	if c.Runs > 0 {
		// Requests the cold pass made per sweep it had to simulate.
		m["charz.dedup_ratio"] = float64(c.Runs+c.MemoryHits+c.DiskHits+c.RemoteHits) / float64(c.Runs)
	}
}
