package exp

import (
	"context"
	"fmt"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/workloads"
)

// Figs. 2 and 3 and Table I: characterization of the eight platforms.

func init() {
	register(Experiment{
		ID:    "fig2",
		Paper: "Fig. 2",
		Title: "Mess bandwidth–latency curves of the Skylake server with derived metrics",
		Run:   runFig2,
	})
	for i, spec := range platform.All() {
		spec, letter := spec, string(rune('a'+i))
		register(Experiment{
			ID:    "fig3" + letter,
			Paper: "Fig. 3(" + letter + ")",
			Title: "Bandwidth–latency curves: " + spec.Name,
			Run:   func(env *Env) (*Result, error) { return runPlatformCurves(spec, env) },
		})
	}
	register(Experiment{
		ID:    "table1",
		Paper: "Table I",
		Title: "Quantitative memory performance comparison of all platforms",
		Run:   runTable1,
	})
}

// streamRequest names the platform's STREAM suite with default options.
func streamRequest(spec platform.Spec) charz.ArtifactRequest {
	return charz.ArtifactRequest{Kind: "workloads.stream", Spec: spec, Workload: &workloads.Options{}}
}

// streamSuite runs the four STREAM kernels on the platform with default
// options, once per service (fig2 and table1 both report Skylake's).
func (env *Env) streamSuite(spec platform.Spec) ([]workloads.Result, error) {
	return charz.Memo(env.Context(), env.Charz, streamRequest(spec), func(context.Context) ([]workloads.Result, error) {
		return workloads.StreamSuite(spec, workloads.Options{})
	})
}

func runFig2(env *Env) (*Result, error) {
	spec := scaleSpec(platform.Skylake(), env.Scale)
	fam, err := env.reference(spec)
	if err != nil {
		return nil, err
	}
	m := fam.Metrics()

	stream, err := env.streamSuite(spec)
	if err != nil {
		return nil, err
	}

	r := &Result{
		Title:  "Mess curves + derived metrics, " + spec.Name,
		Header: []string{"metric", "value"},
	}
	r.Families = append(r.Families, fam)
	r.Rows = append(r.Rows,
		[]string{"unloaded latency", fmt.Sprintf("%.0f ns", m.UnloadedLatencyNs)},
		[]string{"maximum latency range", fmt.Sprintf("%.0f–%.0f ns", m.MaxLatencyMinNs, m.MaxLatencyMaxNs)},
		[]string{"saturated bandwidth range", fmt.Sprintf("%.0f–%.0f GB/s (%s–%s of theoretical)",
			m.SatBWLowGBs, m.SatBWHighGBs, pct(m.SatLowFrac()), pct(m.SatHighFrac()))},
	)
	for _, st := range stream {
		r.Rows = append(r.Rows, []string{st.Name + " bandwidth (application view)",
			fmt.Sprintf("%.1f GB/s (%s of theoretical)", st.AppBWGBs, pct(st.AppBWGBs/spec.TheoreticalBandwidthGBs()))})
	}
	r.Notes = append(r.Notes,
		"STREAM reports application-level bandwidth; the Mess counters additionally see the RFO and writeback traffic of the write-allocate hierarchy, so Mess maximum bandwidths are higher (Sec. III).")
	return r, nil
}

func runPlatformCurves(spec platform.Spec, env *Env) (*Result, error) {
	scaled := scaleSpec(spec, env.Scale)
	fam, err := env.reference(scaled)
	if err != nil {
		return nil, err
	}
	m := fam.Metrics()
	r := &Result{
		Title:  "Bandwidth–latency curves: " + scaled.Name,
		Header: []string{"metric", "simulated", "paper"},
	}
	r.Families = append(r.Families, fam)
	r.Rows = append(r.Rows,
		[]string{"unloaded latency", fmt.Sprintf("%.0f ns", m.UnloadedLatencyNs), fmt.Sprintf("%.0f ns", spec.UnloadedLatencyNs)},
		[]string{"saturated range", pct(m.SatLowFrac()) + "–" + pct(m.SatHighFrac()), "see Table I"},
	)
	return r, nil
}

func runTable1(env *Env) (*Result, error) {
	specs := platform.All()
	r := &Result{
		Title: "Quantitative memory performance comparison",
		Header: []string{"platform", "theor. BW", "saturated range", "paper",
			"STREAM range", "unloaded", "paper", "max latency", "paper"},
	}
	// All eight platforms characterize concurrently through the service's
	// bounded worker pool; repeats (fig2/fig3 already ran some) are cache
	// hits.
	scaled := make([]platform.Spec, len(specs))
	for i, spec := range specs {
		scaled[i] = scaleSpec(spec, env.Scale)
	}
	fams, err := env.referenceAll(scaled)
	if err != nil {
		return nil, err
	}
	for i, sp := range scaled {
		m := fams[i].Metrics()
		stream, err := env.streamSuite(sp)
		if err != nil {
			return nil, err
		}
		stMin, stMax := stream[0].AppBWGBs, stream[0].AppBWGBs
		for _, st := range stream[1:] {
			if st.AppBWGBs < stMin {
				stMin = st.AppBWGBs
			}
			if st.AppBWGBs > stMax {
				stMax = st.AppBWGBs
			}
		}
		theor := sp.TheoreticalBandwidthGBs()
		r.Rows = append(r.Rows, []string{
			sp.Name,
			fmt.Sprintf("%.0f GB/s", theor),
			pct(m.SatLowFrac()) + "–" + pct(m.SatHighFrac()),
			fmt.Sprintf("%.0f–%.0f%%", sp.SatRangePct[0], sp.SatRangePct[1]),
			pct(stMin/theor) + "–" + pct(stMax/theor),
			fmt.Sprintf("%.0f ns", m.UnloadedLatencyNs),
			fmt.Sprintf("%.0f ns", sp.UnloadedLatencyNs),
			fmt.Sprintf("%.0f–%.0f ns", m.MaxLatencyMinNs, m.MaxLatencyMaxNs),
			fmt.Sprintf("%.0f–%.0f ns", sp.MaxLatencyRangeNs[0], sp.MaxLatencyRangeNs[1]),
		})
	}
	r.Notes = append(r.Notes,
		"Quick scale shrinks large platforms (cores and channels by the same factor); percentages of theoretical bandwidth remain comparable.",
		"Maximum latencies depend on total outstanding requests; the paper's absolute values depend on controller queue depths not public for these machines.")
	return r, nil
}
