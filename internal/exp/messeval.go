package exp

import (
	"context"
	"fmt"
	"math"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

// Figs. 10–13: the Mess analytical simulator integrated under the ZSim-like
// and gem5-like CPU configurations: curve agreement and IPC error.

func init() {
	register(Experiment{
		ID:    "fig10",
		Paper: "Fig. 10",
		Title: "ZSim+Mess bandwidth–latency curves (DDR4, DDR5, HBM2)",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Paper: "Fig. 11",
		Title: "ZSim memory-model IPC error vs reference (STREAM, LMbench, multichase)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Paper: "Fig. 12",
		Title: "gem5+Mess bandwidth–latency curves (single-channel DDR5 and HBM2)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Paper: "Fig. 13",
		Title: "gem5 memory-model IPC error vs reference",
		Run:   runFig13,
	})
}

// familyAgreement quantifies how closely a simulated family matches the
// reference: mean relative latency error sampled across each curve's
// common bandwidth domain.
func familyAgreement(ref, got *core.Family) float64 {
	var errSum float64
	var n int
	for _, rc := range ref.Curves {
		gc := got.Nearest(rc.ReadRatio)
		if gc == nil {
			continue
		}
		maxBW := math.Min(rc.MaxBW(), gc.MaxBW())
		for f := 0.1; f <= 0.9; f += 0.1 {
			bw := f * maxBW
			a := rc.LatencyAt(bw)
			b := gc.LatencyAt(bw)
			if a > 0 {
				errSum += math.Abs(b-a) / a
				n++
			}
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return errSum / float64(n)
}

func runFig10(env *Env) (*Result, error) {
	return messAgreement(env, fig10Variants(env.Scale), "ZSim + Mess simulator vs actual curves",
		"The paper reports <1% unloaded-latency error, ≈3% maximum-latency error and 2% saturated-range error for ZSim+Mess (Sec. V-B.1).")
}

// fig10Variants are the memory systems of Fig. 10: the ZSim Skylake model
// and, at Full scale, the paper's DDR5 (58 cores) and HBM2 (192 cores) ZSim
// scale-ups.
func fig10Variants(s Scale) []platform.Spec {
	variants := []platform.Spec{scaleSpec(platform.ZSimSkylake(), s)}
	if s != Full {
		return variants
	}
	ddr5 := platform.ZSimSkylake()
	ddr5.Name = "ZSim 58 cores, 8×DDR5-4800"
	ddr5.Cores = 58
	ddr5.DRAM = dram.DDR5(4800, 8, 2)
	hbm := platform.ZSimSkylake()
	hbm.Name = "ZSim 192 cores, 32×HBM2"
	hbm.Cores = 192
	hbm.DRAM = dram.HBM2(32)
	return append(variants, ddr5, hbm)
}

// messAgreement is the body of Figs. 10 and 12: on each memory system, the
// family the Mess benchmark measures over the Mess simulator fed with the
// system's reference curves, drawn and scored against those curves.
func messAgreement(env *Env, specs []platform.Spec, title, note string) (*Result, error) {
	r := &Result{
		Title:  title,
		Header: []string{"memory system", "curve agreement (mean rel. latency error)"},
		Notes:  []string{note},
	}
	for _, spec := range specs {
		ref, err := env.reference(spec)
		if err != nil {
			return nil, err
		}
		got, err := modelFamily(env, spec, memmodel.KindMess, ref)
		if err != nil {
			return nil, err
		}
		got.Label = spec.Name + " + Mess simulator"
		r.Families = append(r.Families, got)
		r.Rows = append(r.Rows, []string{spec.Name, fmt.Sprintf("%.1f%%", 100*familyAgreement(ref, got))})
	}
	return r, nil
}

// evalOptions are the evaluation suite's run windows at the scale.
func evalOptions(s Scale) workloads.Options {
	var o workloads.Options
	if s == Quick {
		o.Warmup = 5 * sim.Microsecond
		o.Measure = 20 * sim.Microsecond
	}
	return o
}

// evalRequest names the evaluation suite on spec at the scale: on the
// platform's own memory for KindReference, else on the model of that kind
// built over the platform's reference family.
func evalRequest(spec platform.Spec, s Scale, kind memmodel.Kind) charz.ArtifactRequest {
	o := evalOptions(s)
	req := charz.ArtifactRequest{Kind: "workloads.eval", Spec: spec, Workload: &o}
	if kind != memmodel.KindReference {
		req.Tag = "model:" + string(kind)
		req.Ref = charz.Fingerprint(refRequest(spec, s))
	}
	return req
}

// ipcErrors is the body of Figs. 11 and 13: it runs the evaluation suite on
// the reference and each model and reports the per-benchmark absolute IPC
// error plus averages.
func ipcErrors(env *Env, spec platform.Spec, kinds []memmodel.Kind, title, note string) (*Result, error) {
	ref, err := env.reference(spec)
	if err != nil {
		return nil, err
	}
	suite := func(kind memmodel.Kind) ([]workloads.Result, error) {
		return charz.Memo(env.Context(), env.Charz, evalRequest(spec, env.Scale, kind), func(context.Context) ([]workloads.Result, error) {
			o := evalOptions(env.Scale)
			if kind != memmodel.KindReference {
				var err error
				if o.Backend, err = memmodel.Factory(kind, spec, ref); err != nil {
					return nil, err
				}
			}
			return workloads.EvalSuite(spec, o)
		})
	}
	refResults, err := suite(memmodel.KindReference)
	if err != nil {
		return nil, err
	}

	r := &Result{Title: title, Header: []string{"model"}, BarUnit: "%.1f%%", Notes: []string{note}}
	for _, b := range refResults {
		r.Header = append(r.Header, b.Name)
	}
	r.Header = append(r.Header, "average")

	for _, kind := range kinds {
		got, err := suite(kind)
		if err != nil {
			return nil, err
		}
		row := []string{string(kind)}
		errs, avg := workloads.IPCErrors(refResults, got)
		for _, e := range errs {
			row = append(row, fmt.Sprintf("%.1f%%", 100*e))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*avg))
		r.Rows = append(r.Rows, row)
		r.Bars = append(r.Bars, Bar{Label: string(kind), Value: 100 * avg})
	}
	return r, nil
}

// The models Figs. 4 and 5 draw and Figs. 11 and 13 score, in row order.
var (
	fig4Models  = []memmodel.Kind{memmodel.KindFixed, memmodel.KindInternalDDR, memmodel.KindRamulator2}
	fig5Models  = []memmodel.Kind{memmodel.KindFixed, memmodel.KindMD1, memmodel.KindInternalDDR, memmodel.KindDRAMsim3, memmodel.KindRamulator}
	fig11Models = []memmodel.Kind{
		memmodel.KindFixed, memmodel.KindMD1, memmodel.KindInternalDDR,
		memmodel.KindDRAMsim3, memmodel.KindRamulator, memmodel.KindMess,
	}
	fig13Models = []memmodel.Kind{
		memmodel.KindFixed, memmodel.KindInternalDDR,
		memmodel.KindRamulator2, memmodel.KindMess,
	}
)

func runFig11(env *Env) (*Result, error) {
	spec := scaleSpec(platform.ZSimSkylake(), env.Scale)
	return ipcErrors(env, spec, fig11Models, "ZSim memory-model IPC error (absolute, vs reference platform)",
		"Paper: Mess averages 1.3%; M/D/1 and internal DDR follow; fixed-latency and Ramulator exceed 80% (Fig. 11). The ordering, not the absolute values, is the reproduction target.")
}

func runFig12(env *Env) (*Result, error) {
	return messAgreement(env, fig12Variants(), "gem5 + Mess simulator, single-channel configurations",
		"The paper runs single-channel gem5 configurations because full-system cycle-accurate sweeps would take years; scaled to 8 channels the curves match the Graviton 3 measurements (Sec. V-B.2).")
}

// fig12Variants are the memory systems of Fig. 12: 16 cores on a single
// DDR5-4800 channel and on a single HBM2 channel. The gem5 Neoverse cores
// have moderate memory-level parallelism; with a single channel, CPU-class
// MSHR depths would pin the system so deep into saturation that the curves
// degenerate to their last point.
func fig12Variants() []platform.Spec {
	ddr5 := platform.Gem5Graviton3()
	ddr5.Name = "gem5 16 cores, 1×DDR5-4800"
	ddr5.Cores = 16
	ddr5.MSHRs = 6
	ddr5.WriteBufs = 8
	ddr5.DRAM = dram.DDR5(4800, 1, 2)

	hbm := platform.Gem5Graviton3()
	hbm.Name = "gem5 16 cores, 1×HBM2 channel"
	hbm.Cores = 16
	hbm.MSHRs = 6
	hbm.WriteBufs = 8
	hbm.DRAM = dram.HBM2(1)
	return []platform.Spec{ddr5, hbm}
}

func runFig13(env *Env) (*Result, error) {
	spec := scaleSpec(platform.Gem5Graviton3(), env.Scale)
	return ipcErrors(env, spec, fig13Models, "gem5 memory-model IPC error (absolute, vs reference platform)",
		"Paper: simple memory 30%, internal DDR 15%, Ramulator 2 52%, Mess 3% (Fig. 13). The reproduction target is Mess lowest by a wide margin; the fixed model errs far more here than gem5's SimpleMemory, which throttles bandwidth internally.")
}
