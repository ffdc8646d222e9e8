package exp

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/workloads"
)

// Fig. 14 and Appendix B (Figs. 17–18): CXL memory expanders.

func init() {
	register(Experiment{
		ID:    "fig14",
		Paper: "Fig. 14",
		Title: "CXL expander curves: manufacturer model vs Mess in OpenPiton/gem5/ZSim",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig17",
		Paper: "Fig. 17",
		Title: "Remote-socket emulation of CXL: perlbench and lbm operating points",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "fig18",
		Paper: "Fig. 18",
		Title: "Remote-socket vs CXL performance across the SPEC-like suite",
		Run:   runFig18,
	})
}

// The manufacturer's CXL curves and the remote-socket curves are pure
// functions of the scale, swept at most once per process.
var cxlFamily, remoteFamily = perScale(cxl.Family), perScale(cxl.RemoteSocketFamily)

func perScale(sweep func(cxl.SweepOptions) *core.Family) (fams [2]func() *core.Family) {
	for s := range scales {
		s := s
		fams[s] = sync.OnceValue(func() *core.Family { return sweep(scales[s].cxl) })
	}
	return fams
}

func runFig14(env *Env) (*Result, error) {
	manufacturer := cxlFamily[env.Scale]()

	r := &Result{
		Title:  "CXL memory expander: manufacturer's model vs Mess-integrated CPU simulators",
		Header: []string{"integration", "max BW [GB/s]", "max latency [ns]"},
	}
	r.Families = append(r.Families, manufacturer)
	mm := manufacturer.Metrics()
	r.Rows = append(r.Rows, []string{"Manufacturer device model",
		fmt.Sprintf("%.1f", mm.SatBWHighGBs), fmt.Sprintf("%.0f", mm.MaxLatencyMaxNs)})

	for _, host := range fig14Hosts(env.Scale) {
		mk, err := memmodel.Factory(memmodel.KindMess, host, manufacturer)
		if err != nil {
			return nil, err
		}
		// The manufacturer family is a pure function of the scale, which
		// the options already encode, so the tag is a stable identity.
		art, err := env.Charz.CharacterizeContext(env.Context(), modelRequest(host, env.Scale, "messsim:cxl", mk))
		if err != nil {
			return nil, err
		}
		fam := art.Family
		fam.Label = host.Name + " + Mess (CXL curves)"
		fam.TheoreticalBW = manufacturer.TheoreticalBW
		m := fam.Metrics()
		r.Families = append(r.Families, fam)
		r.Rows = append(r.Rows, []string{fam.Label,
			fmt.Sprintf("%.1f", m.SatBWHighGBs), fmt.Sprintf("%.0f", m.MaxLatencyMaxNs)})
	}
	r.Notes = append(r.Notes,
		"CXL is full-duplex: balanced read/write mixes reach the highest bandwidth; 100%-read or 100%-write saturates one link direction early — the inverse of DDR (Sec. V-C).",
		"The OpenPiton Ariane host (2-entry MSHRs, in-order) cannot saturate the device, so its maximum latency stays below the manufacturer curves, as in the paper.")
	return r, nil
}

// fig14Hosts are the CPU simulators Fig. 14 loads with the CXL curves.
func fig14Hosts(s Scale) []platform.Spec {
	return []platform.Spec{platform.OpenPitonAriane(), scaleSpec(platform.Gem5Graviton3(), s), scaleSpec(platform.ZSimSkylake(), s)}
}

// ipcPair is one SPEC-like benchmark's outcome on the two device models.
type ipcPair struct {
	name           string
	cxlIPC, remIPC float64
	util           float64 // bandwidth on the CXL device over its theoretical maximum
}

func (p ipcPair) delta() float64 { return (p.remIPC - p.cxlIPC) / p.cxlIPC }

// specOptions are a SPEC-like benchmark's run options at the scale, less
// the device backend.
func specOptions(b workloads.SpecBenchmark, s Scale) workloads.Options {
	o := scales[s].workload
	o.LLCHitRate = b.LLCHitRate
	return o
}

// specPairRequest names one benchmark's pair of runs on the host: under
// the Mess simulator loaded with the CXL curves, then the remote-socket
// curves. Both families are pure functions of the scale's device sweep.
func specPairRequest(host platform.Spec, b workloads.SpecBenchmark, s Scale) charz.ArtifactRequest {
	o := specOptions(b, s)
	return charz.ArtifactRequest{Kind: "workloads.cxl-vs-remote", Spec: host, Workload: &o,
		Tag: fmt.Sprintf("kernel=%+v;models=mess:cxl,mess:remote-socket;sweep=%+v", b.Kernel, scales[s].cxl)}
}

// runCXLvsRemote executes each SPEC-like benchmark against the Mess
// simulator loaded with the CXL curves and with the remote-socket curves
// and reports both IPCs plus the benchmark's bandwidth utilization, in suite
// order. Benchmarks run side by side, each pair one memoised artifact; both
// families are resolved before the fan-out and only read inside it.
func runCXLvsRemote(env *Env, suite []workloads.SpecBenchmark, host platform.Spec) ([]ipcPair, error) {
	families := [2]*core.Family{cxlFamily[env.Scale](), remoteFamily[env.Scale]()}
	var devices [2]mem.BackendFactory
	for i, fam := range families {
		var err error
		if devices[i], err = memmodel.Factory(memmodel.KindMess, host, fam); err != nil {
			return nil, err
		}
	}
	out := make([]ipcPair, len(suite))
	err := par.Do(env.Context(), len(suite), func(n int) error {
		b := suite[n]
		res, err := charz.Memo(env.Context(), env.Charz, specPairRequest(host, b, env.Scale), func(context.Context) ([2]workloads.Result, error) {
			var res [2]workloads.Result
			for i, device := range devices {
				o := specOptions(b, env.Scale)
				o.Backend = device
				var err error
				if res[i], err = workloads.Run(host, b.Kernel, o); err != nil {
					return res, err
				}
			}
			return res, nil
		})
		if err != nil {
			return err
		}
		out[n] = ipcPair{b.Name, res[0].IPC, res[1].IPC, res[0].MemBWGBs / families[0].TheoreticalBW}
		return nil
	})
	return out, err
}

// fig17Suite is Fig. 17's two characteristic benchmarks: perlbench, then lbm.
func fig17Suite() []workloads.SpecBenchmark { return specSubset([]string{"perlbench", "lbm"}) }

// fig18Suite is the SPEC-like suite Fig. 18 runs at the scale.
func fig18Suite(s Scale) []workloads.SpecBenchmark { return specSubset(scales[s].fig18) }

// specSubset is the SPEC-like suite, in suite order, less the benchmarks
// names leaves out; nil names keeps them all.
func specSubset(names []string) []workloads.SpecBenchmark {
	return slices.DeleteFunc(workloads.SpecSuite(), func(b workloads.SpecBenchmark) bool {
		return names != nil && !slices.Contains(names, b.Name)
	})
}

func runFig17(env *Env) (*Result, error) {
	s := env.Scale
	host := scaleSpec(platform.ZSimSkylake(), s)
	r := &Result{
		Title:  "CXL vs remote-socket emulation: characteristic benchmarks",
		Header: []string{"benchmark", "CXL IPC", "remote IPC", "Δ", "BW util of CXL max"},
	}
	r.Families = append(r.Families, cxlFamily[s](), remoteFamily[s]())
	ipcs, err := runCXLvsRemote(env, fig17Suite(), host)
	if err != nil {
		return nil, err
	}
	for _, p := range ipcs {
		r.Rows = append(r.Rows, []string{p.name,
			fmt.Sprintf("%.3f", p.cxlIPC), fmt.Sprintf("%.3f", p.remIPC),
			fmt.Sprintf("%+.1f%%", 100*p.delta()), pct(p.util)})
	}
	r.Notes = append(r.Notes,
		"Low-bandwidth perlbench pays the remote socket's ≈28 ns extra unloaded latency; bandwidth-hungry lbm gains from the remote socket's higher saturated bandwidth (Appendix B).")
	return r, nil
}

func runFig18(env *Env) (*Result, error) {
	s := env.Scale
	host := scaleSpec(platform.ZSimSkylake(), s)
	suite := fig18Suite(s)
	rows, err := runCXLvsRemote(env, suite, host)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].util < rows[j].util })

	r := &Result{
		Title:   "Remote-socket emulation vs target CXL system, sorted by bandwidth utilization",
		Header:  []string{"benchmark", "BW utilization", "performance difference"},
		BarUnit: "%+.1f%%",
	}
	for _, rw := range rows {
		r.Rows = append(r.Rows, []string{rw.name, pct(rw.util), fmt.Sprintf("%+.1f%%", 100*rw.delta())})
		r.Bars = append(r.Bars, Bar{Label: rw.name, Value: 100 * rw.delta()})
	}
	r.Notes = append(r.Notes,
		"Paper shape: up to ≈12% slower for low-bandwidth benchmarks, crossover in the 30–50% utilization band, 11–22% faster for bandwidth-hungry ones (Fig. 18).")
	return r, nil
}
