package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

// zooKinds are the models the timed region characterizes. The detailed
// reference model is deliberately absent: it runs in set-up only.
var zooKinds = []memmodel.Kind{
	memmodel.KindFixed, memmodel.KindMD1, memmodel.KindInternalDDR,
	memmodel.KindDRAMsim3, memmodel.KindRamulator, memmodel.KindMess,
}

// zooWorkload is model-zoo, the paper's simulator-evaluation flow: every
// memory model is characterized with the Mess benchmark and then scored
// on the IPC evaluation suite against the detailed reference.
type zooWorkload struct {
	spec    platform.Spec
	opt     bench.Options
	kinds   []memmodel.Kind // seed order
	refFam  *core.Family
	refIPC  []workloads.Result
	evalOpt workloads.Options

	messErrPct float64 // last iteration
}

func zooSpec() platform.Spec {
	spec := platform.Skylake()
	spec.Cores, spec.DRAM.Channels = 8, 3 // the Quick-scaled Skylake of cmd/messperf
	return spec
}

func setupModelZoo(cfg config) (instance, error) {
	r := newRNG(cfg.seed, "model-zoo")
	w := &zooWorkload{spec: zooSpec(), kinds: shuffled(r, zooKinds)}
	mixes := []bench.Mix{{StorePercent: 0}, {StorePercent: 40}, {StorePercent: 100}}
	paces := []float64{0, 2, 6, 16, 48, 128, 384}
	w.opt = bench.Options{
		Mixes:   shuffled(r, thin(mixes, cfg.scaled(len(mixes), 1))),
		PacesNs: shuffled(r, thin(paces, cfg.scaled(len(paces), 2))),
		Warmup:  6 * sim.Microsecond, Measure: 18 * sim.Microsecond, Parallelism: 2,
	}
	w.evalOpt = workloads.Options{Warmup: 5 * sim.Microsecond, Measure: 20 * sim.Microsecond}
	// The reference curves and reference IPCs come from the detailed DRAM
	// model: set-up work, so the timed region never touches it.
	art, err := charz.New(charz.Config{}).Characterize(charz.Request{Spec: w.spec, Options: w.opt})
	if err != nil {
		return nil, err
	}
	w.refFam = art.Family
	if w.refIPC, err = workloads.EvalSuite(w.spec, w.evalOpt); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *zooWorkload) factory(kind memmodel.Kind) mem.BackendFactory {
	return func(eng *sim.Engine) mem.Backend {
		m, err := memmodel.New(kind, eng, w.spec, w.refFam)
		if err != nil {
			panic(err) // only an unknown kind or a nil family: a benchmark bug
		}
		return m
	}
}

func (w *zooWorkload) iterate(s scope) iterResult {
	var res iterResult
	// The service's run seam counts sweeps that would fall through to the
	// detailed DRAM model; the separation this workload exists for is that
	// there are none.
	var detailed atomic.Int64
	svc := charz.New(charz.Config{
		Telemetry: s.tel,
		Run: func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
			if opt.Backend == nil {
				detailed.Add(1)
			}
			return bench.RunContext(ctx, spec, opt)
		},
	})
	csvs := map[string]string{}
	ipcs := map[string]string{}
	for _, kind := range w.kinds {
		name := string(kind)
		opt := w.opt
		opt.Backend = w.factory(kind)
		var art *charz.Artifact
		var err error
		s.span("charz", "sweep "+name, func(scope) {
			art, err = svc.CharacterizeContext(context.Background(),
				charz.Request{Spec: w.spec, Options: opt, Tag: "model:" + name})
		})
		res.check(err == nil, "characterize %s: %v", name, err)
		if err != nil {
			continue
		}
		res.ops += len(opt.Mixes)*len(opt.PacesNs) + 1
		res.check(art.Source == charz.SourceRun && len(art.Family.Curves) > 0, "%s: no fresh family", name)
		s.span("core", "csv write", func(scope) { csvs[name] = familyCSV(art.Family) })

		var got []workloads.Result
		evalOpt := w.evalOpt
		evalOpt.Backend = w.factory(kind)
		s.span("workloads", "eval suite", func(scope) { got, err = workloads.EvalSuite(w.spec, evalOpt) })
		res.check(err == nil && len(got) == len(w.refIPC), "eval suite on %s: %v", name, err)
		if err != nil || len(got) != len(w.refIPC) {
			continue
		}
		var errSum float64
		for i, g := range got {
			errSum += math.Abs(g.IPC-w.refIPC[i].IPC) / w.refIPC[i].IPC
			ipcs[name] += fmt.Sprintf("%s=%v ", g.Name, g.IPC)
		}
		if kind == memmodel.KindMess {
			w.messErrPct = 100 * errSum / float64(len(got))
		}
	}
	res.check(detailed.Load() == 0, "%d sweeps ran on the detailed DRAM model inside the timed region", detailed.Load())
	d := newDigester()
	for _, name := range sortedKeys(csvs) {
		d.add("%s\n%s%s\n", name, csvs[name], ipcs[name])
	}
	res.digest = d.sum()
	return res
}

func (w *zooWorkload) verify() iterResult { return iterResult{} }
func (w *zooWorkload) close() error       { return nil }

func (w *zooWorkload) layers(t *tracedRun, m layerMetrics) {
	sweepLayers(t, m)
	for _, kind := range zooKinds {
		m["memmodel.sweep_ms."+string(kind)] = t.callMs("sweep " + string(kind))
	}
	m["memmodel.eval_suite_ms"] = t.callMs("eval suite") / float64(len(zooKinds))
	m["memmodel.mess_ipc_err_pct"] = w.messErrPct
	m["messsim.closed_loop_ns"], m["messsim.allocs_per_req"] = messClosedLoop(w.refFam)
	interpLayer(m, w.refFam)
	kernelLayers(m)
	poolLayers(m)
	// The CPU side priced alone. No dram.point_share here: the detailed
	// model is not part of this workload.
	if feNs, ok := frontendNsPerReq(w.spec, w.opt, bench.Mix{}); ok {
		m["frontend.ns_per_req"] = feNs
	}
}
