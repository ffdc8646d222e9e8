package exp

import (
	"context"
	"fmt"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
)

// Figs. 4–7: Mess characterization of CPU-simulator memory models and
// trace-driven cycle-accurate simulators.

func init() {
	register(Experiment{
		ID:    "fig4",
		Paper: "Fig. 4",
		Title: "Graviton 3 vs gem5 memory models (simple, internal DDR, Ramulator 2)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Paper: "Fig. 5",
		Title: "Skylake vs ZSim memory models (fixed, M/D/1, internal DDR, DRAMsim3, Ramulator)",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Paper: "Fig. 6",
		Title: "Trace-driven cycle-accurate simulators vs actual curves",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Paper: "Fig. 7",
		Title: "Row-buffer hit/empty/miss: actual vs DRAMsim3 vs Ramulator",
		Run:   runFig7,
	})
}

// modelRequest is the scale's sweep over the memory model mk, named by tag
// ("model:<kind>", or Fig. 14's "messsim:cxl").
func modelRequest(spec platform.Spec, s Scale, tag string, mk mem.BackendFactory) charz.Request {
	opt := Sweep(s)
	opt.Backend = mk
	return charz.Request{Spec: spec, Options: opt, Tag: tag}
}

// modelFamily runs the Mess benchmark over the given memory model under
// the platform's unchanged CPU side; the caller labels the family. The
// model backend is deterministic given the spec — for the Mess kind, given
// ref, the platform's reference family, itself a pure function of (spec,
// scale options) — so the kind tag makes the run cacheable.
func modelFamily(env *Env, spec platform.Spec, kind memmodel.Kind, ref *core.Family) (*core.Family, error) {
	mk, err := memmodel.Factory(kind, spec, ref)
	if err != nil {
		return nil, err
	}
	art, err := env.Charz.CharacterizeContext(env.Context(), modelRequest(spec, env.Scale, "model:"+string(kind), mk))
	if err != nil {
		return nil, err
	}
	return art.Family, nil
}

// modelComparison is the body of Figs. 4 and 5: the platform's actual curves,
// then each model's, every family drawn and given one table row — label,
// unloaded latency, maximum bandwidth and the figure's own last column.
func modelComparison(env *Env, r *Result, spec platform.Spec, kinds []memmodel.Kind, last func(core.Metrics) string) (*Result, error) {
	actual, err := env.reference(spec)
	if err != nil {
		return nil, err
	}
	actual.Label = "Actual (reference model): " + spec.Name
	add := func(f *core.Family) {
		m := f.Metrics()
		r.Families = append(r.Families, f)
		r.Rows = append(r.Rows, []string{f.Label,
			fmt.Sprintf("%.0f", m.UnloadedLatencyNs), fmt.Sprintf("%.0f", m.SatBWHighGBs), last(m)})
	}
	add(actual)
	for _, kind := range kinds {
		f, err := modelFamily(env, spec, kind, nil)
		if err != nil {
			return nil, err
		}
		f.Label = spec.Name + " + " + string(kind)
		add(f)
	}
	return r, nil
}

func runFig4(env *Env) (*Result, error) {
	r := &Result{
		Title:  "Graviton 3 server vs gem5 memory models",
		Header: []string{"model", "unloaded [ns]", "max BW [GB/s]", "saturates?"},
		Notes: []string{
			"Paper findings encoded/reproduced: unrealistically low model latencies; Ramulator 2's bandwidth wall below half the measured system bandwidth (Fig. 4d)."},
	}
	return modelComparison(env, r, scaleSpec(platform.Gem5Graviton3(), env.Scale), fig4Models, func(m core.Metrics) string {
		if m.MaxLatencyMaxNs < 2*m.UnloadedLatencyNs {
			return "no"
		}
		return "yes"
	})
}

func runFig5(env *Env) (*Result, error) {
	spec := scaleSpec(platform.ZSimSkylake(), env.Scale)
	r := &Result{
		Title:  "Skylake server vs ZSim memory models",
		Header: []string{"model", "unloaded [ns]", "max BW [GB/s]", "max/theoretical"},
		Notes: []string{
			"Fixed-latency and Ramulator exceed the theoretical bandwidth (no bandwidth model); the internal DDR model under-estimates the saturated range; DRAMsim3 never saturates (Sec. IV-B)."},
	}
	theor := spec.TheoreticalBandwidthGBs()
	return modelComparison(env, r, spec, fig5Models, func(m core.Metrics) string {
		return fmt.Sprintf("%.2f×", m.SatBWHighGBs/theor)
	})
}

// replica is a standalone cycle-accurate simulator fed with captured traces.
type replica struct {
	name string
	kind memmodel.Kind
}

// fig6Platform is one reference platform of Fig. 6 with the trace-driven
// replicas its captures are replayed into.
type fig6Platform struct {
	spec     platform.Spec
	replicas []replica
}

func fig6Platforms(s Scale) []fig6Platform {
	return []fig6Platform{
		{scaleSpec(platform.Gem5Graviton3(), s), []replica{{"Ramulator2 (trace-driven)", memmodel.KindRamulator2}}},
		{scaleSpec(platform.ZSimSkylake(), s), []replica{
			{"DRAMsim3 (trace-driven)", memmodel.KindDRAMsim3},
			{"Ramulator (trace-driven)", memmodel.KindRamulator},
		}},
	}
}

// runFig6 captures a trace on the reference platform at each sweep point
// and replays it into every standalone replica of that platform.
func runFig6(env *Env) (*Result, error) {
	r := &Result{
		Title:  "Trace-driven cycle-accurate simulators",
		Header: []string{"simulator", "trace points", "max BW [GB/s]", "actual max BW [GB/s]"},
	}
	for _, pf := range fig6Platforms(env.Scale) {
		fams, actualMax, err := traceDrivenFamilies(env, pf)
		if err != nil {
			return nil, err
		}
		for i, fam := range fams {
			fam.Label = pf.replicas[i].name
			r.Families = append(r.Families, fam)
			n := 0
			for _, c := range fam.Curves {
				n += len(c.Points)
			}
			r.Rows = append(r.Rows, []string{fam.Label, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0f", fam.Metrics().SatBWHighGBs), fmt.Sprintf("%.0f", actualMax)})
		}
	}
	r.Notes = append(r.Notes,
		"Correct simulation would place every trace-driven point on the actual bandwidth–latency curves; the replicas land below them in latency and, for Ramulator 2, hit a bandwidth wall at less than half the actual maximum (Sec. IV-D).")
	return r, nil
}

// fig6Options is the sweep Fig. 6 captures its traces from: the scale's
// sweep on a pacing ladder of its own.
func fig6Options(s Scale) bench.Options {
	opt := Sweep(s)
	opt.PacesNs = scales[s].fig6Paces
	return opt
}

// minReplayRecords is the smallest capture fig6 replays: short quick-scale
// windows at heavy pacing legitimately record few transactions, and a few
// dozen replayed requests still yield a valid (BW, latency) point.
const minReplayRecords = 32

// replaysRequest names the platform's fig6 captures and replays.
func replaysRequest(pf fig6Platform, s Scale) charz.ArtifactRequest {
	opt := fig6Options(s)
	tag := fmt.Sprintf("limit=%d;min=%d;replicas=", captureLimit, minReplayRecords)
	for _, rep := range pf.replicas {
		tag += string(rep.kind) + ";"
	}
	return charz.ArtifactRequest{Kind: "trace.replays", Spec: pf.spec, Bench: &opt, Tag: tag}
}

// traceDrivenFamilies captures one trace per (mix, pace) sweep point on the
// reference platform and replays it into a fresh instance of every replica,
// returning one family per replica plus the platform's actual maximum
// bandwidth. The sweep points are independent simulations and run side by
// side; each worker drops its trace once the replicas have consumed it, and
// the curves are assembled in pace order after the join, so the families do
// not depend on the worker count. The replay results are one memoised
// artifact per platform; the families are built from them on every call.
func traceDrivenFamilies(env *Env, pf fig6Platform) ([]*core.Family, float64, error) {
	spec, opt := pf.spec, fig6Options(env.Scale)
	actual, err := env.reference(spec)
	if err != nil {
		return nil, 0, err
	}
	// replays[m*paces+p][t] is replica t's replay of the trace captured at
	// mix m, pace p; the row stays nil when the capture was discarded.
	paces := len(opt.PacesNs)
	replays, err := charz.Memo(env.Context(), env.Charz, replaysRequest(pf, env.Scale), func(ctx context.Context) ([][]trace.ReplayResult, error) {
		mks := make([]mem.BackendFactory, len(pf.replicas))
		for t, rep := range pf.replicas {
			var err error
			if mks[t], err = memmodel.Factory(rep.kind, spec, nil); err != nil {
				return nil, err
			}
		}
		replays := make([][]trace.ReplayResult, len(opt.Mixes)*paces)
		err := par.Do(ctx, len(replays), func(i int) error {
			tr, _, err := trace.CapturePoint(ctx, spec, opt, opt.Mixes[i/paces], opt.PacesNs[i%paces], captureLimit)
			if err != nil {
				return err
			}
			if len(tr.Records) < minReplayRecords {
				return nil
			}
			replays[i] = make([]trace.ReplayResult, len(mks))
			for t, mk := range mks {
				eng := sim.New()
				replays[i][t] = trace.Replay(eng, mk(eng), tr)
			}
			return nil
		})
		return replays, err
	})
	if err != nil {
		return nil, 0, err
	}

	fams := make([]*core.Family, len(pf.replicas))
	for t := range pf.replicas {
		mixes := make([][]core.Measured, len(opt.Mixes))
		for m := range mixes {
			for p := paces - 1; p >= 0; p-- { // ascending pressure
				if replays[m*paces+p] == nil {
					continue
				}
				if rep := replays[m*paces+p][t]; rep.Reads > 0 {
					mixes[m] = append(mixes[m], core.Measured{Point: core.Point{BW: rep.BWGBs, Latency: rep.ReadLatNs}, ReadRatio: rep.ReadRatio})
				}
			}
		}
		fams[t] = core.MeasuredFamily(spec.Name, spec.TheoreticalBandwidthGBs(), nil, mixes)
	}
	return fams, actual.Metrics().SatBWHighGBs, nil
}

// captureLimit bounds the records one trace.CapturePoint of fig6 or fig6s
// keeps: trace capture is memory-hungry.
const captureLimit = 400000

// rowBufferRequest is Fig. 7's sweep, reads only and all stores, with its
// samples, over the replica of the kind. The reference is the platform's
// own detailed model: no backend and no tag, so the run keeps a plain
// characterization's cache identity.
func rowBufferRequest(spec platform.Spec, s Scale, kind memmodel.Kind) (charz.Request, error) {
	req := charz.Request{Spec: spec, Options: Sweep(s), NeedSamples: true}
	req.Options.Mixes = []bench.Mix{{StorePercent: 0}, {StorePercent: 100}}
	if kind == memmodel.KindReference {
		return req, nil
	}
	req.Tag = "replica:" + string(kind)
	var err error
	req.Options.Backend, err = memmodel.Factory(kind, spec, nil)
	return req, err
}

func runFig7(env *Env) (*Result, error) {
	spec := scaleSpec(platform.ZSimSkylake(), env.Scale)
	r := &Result{
		Title:  "Row-buffer statistics under load: actual vs DRAMsim3 vs Ramulator",
		Header: []string{"system", "traffic", "BW [GB/s]", "hit", "empty", "miss"},
	}
	for _, sys := range []struct {
		name string
		kind memmodel.Kind
	}{{"actual (reference)", memmodel.KindReference}, {"DRAMsim3", memmodel.KindDRAMsim3}, {"Ramulator", memmodel.KindRamulator}} {
		req, err := rowBufferRequest(spec, env.Scale, sys.kind)
		if err != nil {
			return nil, err
		}
		art, err := env.Charz.CharacterizeContext(env.Context(), req)
		if err != nil {
			return nil, err
		}
		for _, sm := range art.Result.Samples {
			traffic := "100% read"
			if sm.Mix.StorePercent == 100 {
				traffic = "50/50 read/write"
			}
			r.Rows = append(r.Rows, []string{sys.name, traffic,
				fmt.Sprintf("%.0f", sm.BWGBs),
				pct(sm.RowHit), pct(sm.RowEmpty), pct(sm.RowMiss)})
		}
	}
	r.Notes = append(r.Notes,
		"Actual hardware: hits decay as load and write share grow (84/13/3% → ≈35% hits). DRAMsim3 pins 84–93% hits regardless of load; Ramulator matches reads but stays too high for write-heavy mixes (Fig. 7).")
	return r, nil
}
