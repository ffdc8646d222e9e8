package main

import (
	"context"
	"strings"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/perfload"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// charSweep is one cold characterization of an iteration.
type charSweep struct {
	spec platform.Spec
	opt  bench.Options
}

func (c charSweep) points() int { return len(c.opt.Mixes)*len(c.opt.PacesNs) + 1 }

// deviceSweep is one direct-drive device characterization (char-write).
type deviceSweep struct {
	name string
	run  func(cxl.SweepOptions) *core.Family
	opt  cxl.SweepOptions
}

// fullLadder is the benchmark's default 19-step pacing ladder.
var fullLadder = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}

// charWorkload is char-read and char-write: full-density characterizations
// through a fresh, store-less charz service, two sweep workers. The two
// differ only in which mixes and devices they sweep.
type charWorkload struct {
	write   bool
	sweeps  []charSweep
	devices []deviceSweep

	// Kept from the last iteration for the layer metrics.
	lastStats   charz.Stats
	lastSamples []bench.Sample
	requests    float64 // detailed-DRAM requests inside the measurement windows
}

func setupCharRead(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "char-read")
	var mixes []bench.Mix
	for s := 0; s <= 100; s += 20 {
		mixes = append(mixes, bench.Mix{StorePercent: s})
	}
	mixes = thin(mixes, cfg.scaled(len(mixes), 1))
	paces := thin(fullLadder, cfg.scaled(len(fullLadder), 2))
	// Skylake's curves settle in short windows; Graviton 3's 64 write-through
	// cores starve the pointer chase under store-heavy mixes, so it keeps
	// (nearly) the default windows or the chaser records no sample.
	w := &charWorkload{sweeps: []charSweep{
		{spec: platform.Skylake(), opt: bench.Options{Warmup: 8 * sim.Microsecond, Measure: 20 * sim.Microsecond}},
		{spec: platform.Graviton3(), opt: bench.Options{Warmup: 20 * sim.Microsecond, Measure: 40 * sim.Microsecond}},
	}}
	for i := range w.sweeps {
		w.sweeps[i].opt.Mixes = shuffled(r, mixes)
		w.sweeps[i].opt.PacesNs = shuffled(r, paces)
		w.sweeps[i].opt.Parallelism = 2
	}
	w.sweeps = shuffled(r, w.sweeps)
	return w, nil
}

func setupCharWrite(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "char-write")
	var mixes []bench.Mix
	for s := 50; s <= 100; s += 10 {
		mixes = append(mixes, bench.Mix{StorePercent: s, NonTemporal: true})
	}
	mixes = thin(mixes, cfg.scaled(len(mixes), 1))
	paces := thin(fullLadder, cfg.scaled(len(fullLadder), 2))
	w := &charWorkload{write: true, sweeps: []charSweep{{
		spec: platform.Skylake(),
		opt: bench.Options{
			Mixes: shuffled(r, mixes), PacesNs: shuffled(r, paces), Parallelism: 2,
			Warmup: 8 * sim.Microsecond, Measure: 20 * sim.Microsecond,
		},
	}}}
	fracs := thin([]float64{0, 0.25, 0.5, 0.75, 1.0}, cfg.scaled(5, 2))
	for _, d := range []deviceSweep{
		{name: "cxl.Family", run: cxl.Family},
		{name: "cxl.RemoteSocketFamily", run: cxl.RemoteSocketFamily},
		{name: "cxl.OptaneFamily", run: cxl.OptaneFamily},
	} {
		d.opt = cxl.SweepOptions{
			WriteFractions: shuffled(r, fracs), Parallelism: 2,
			Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond,
		}
		w.devices = append(w.devices, d)
	}
	w.devices = shuffled(r, w.devices)
	return w, nil
}

// deviceRates is the length of cxl's default injection ladder.
const deviceRates = 22

func (w *charWorkload) iterate(s scope) iterResult {
	var res iterResult
	d := newDigester()
	svc := charz.New(charz.Config{Telemetry: s.tel})
	w.lastSamples, w.requests = w.lastSamples[:0], 0
	csvs := map[string]string{}
	for _, sw := range w.sweeps {
		var art *charz.Artifact
		var err error
		s.span("charz", "characterize", func(scope) {
			art, err = svc.CharacterizeContext(context.Background(),
				charz.Request{Spec: sw.spec, Options: sw.opt, NeedSamples: true})
		})
		res.check(err == nil, "characterize %s: %v", sw.spec.Name, err)
		if err != nil {
			continue
		}
		res.ops += sw.points()
		res.check(art.Source == charz.SourceRun, "%s served from %v, want a cold run", sw.spec.Name, art.Source)
		res.check(art.Family.Validate() == nil && len(art.Family.Curves) > 0, "%s: invalid family", sw.spec.Name)
		s.span("core", "csv write", func(scope) { csvs[sw.spec.Name] = familyCSV(art.Family) })
		w.lastSamples = append(w.lastSamples, art.Result.Samples...)
		for _, smp := range art.Result.Samples {
			// GB/s × ns is bytes; one request moves one line.
			w.requests += smp.BWGBs * sw.opt.Measure.Nanoseconds() / mem.LineSize
		}
	}
	for _, dv := range w.devices {
		var fam *core.Family
		s.span("cxl", dv.name, func(scope) { fam = dv.run(dv.opt) })
		res.ops += len(dv.opt.WriteFractions) * deviceRates
		res.check(fam.Validate() == nil && len(fam.Curves) > 0, "%s: invalid family", dv.name)
		s.span("core", "csv write", func(scope) { csvs[dv.name] = familyCSV(fam) })
	}
	w.lastStats = svc.Stats()
	// Digest in name order: the seed shuffles which sweep runs first, and
	// the same curves must hash the same whatever the order.
	for _, name := range sortedKeys(csvs) {
		d.add("%s\n%s", name, csvs[name])
	}
	res.digest = d.sum()
	return res
}

func (w *charWorkload) verify() iterResult { return iterResult{} }
func (w *charWorkload) close() error       { return nil }

func familyCSV(f *core.Family) string {
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		return "error: " + err.Error()
	}
	return b.String()
}

func (w *charWorkload) layers(t *tracedRun, m layerMetrics) {
	sweepLayers(t, m)
	kernelLayers(m)
	poolLayers(m)

	m["charz.runs"] = float64(w.lastStats.Runs)
	m["charz.mem_hits"] = float64(w.lastStats.MemoryHits)
	req := charz.Request{Spec: w.sweeps[0].spec, Options: w.sweeps[0].opt}
	m["charz.fingerprint_us"] = nsPer(200, func() {
		for i := 0; i < 200; i++ {
			charz.Fingerprint(req)
		}
	}) / 1e3
	// What charz adds around a cold fill: its call spans minus the bench
	// sweeps they contain, per characterization.
	m["charz.fill_overhead_ms"] = m["self_ms.charz"] / float64(len(w.sweeps))

	var hit, miss float64
	for _, smp := range w.lastSamples {
		hit += smp.RowHit
		miss += smp.RowMiss
	}
	if n := float64(len(w.lastSamples)); n > 0 {
		m["dram.row_hit_frac"] = hit / n
		m["dram.row_miss_frac"] = miss / n
	}
	m["dram.requests"] = w.requests

	skylake := platform.Skylake()
	patterns := []perfload.LoopPattern{perfload.PatternReference, perfload.PatternRandom}
	if w.write {
		patterns = []perfload.LoopPattern{perfload.PatternMixed}
	}
	for _, p := range patterns {
		ns, allocs := dramClosedLoop(skylake, p)
		m["dram.closed_loop_ns."+p.String()] = ns
		m["dram.allocs_per_req"] = allocs
	}
	mix := bench.Mix{}
	if w.write {
		mix = bench.Mix{StorePercent: 100, NonTemporal: true}
	}
	// The CPU side alone, then what is left of the detailed point: the
	// DRAM model's share of a fully loaded point's host time.
	opt := w.sweeps[0].opt
	if feNs, ok := frontendNsPerReq(skylake, opt, mix); ok {
		m["frontend.ns_per_req"] = feNs
		if hostNs, reqs, ok := pointCost(skylake, opt, mix); ok {
			m["dram.point_share"] = 1 - feNs*reqs/hostNs
		}
	}

	if w.write {
		m["cxl.family_ms"] = t.callMs("cxl.Family")
		m["cxl.remote_family_ms"] = t.callMs("cxl.RemoteSocketFamily")
		m["cxl.optane_family_ms"] = t.callMs("cxl.OptaneFamily")
		m["cxl.closed_loop_ns"] = cxlClosedLoop(skylake)
	}
}
