package exp

import (
	"fmt"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/par"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
)

// fig6s: the sampled-replay variant of the fig6 methodology. Where fig6
// replays every captured record into the trace-driven replicas, fig6s runs
// both the full replay and the phase-clustered sampled replay
// (trace.Sampled) over the same captured traces and reports, per sweep
// point, how far the reconstructed estimates diverge and how much of the
// trace was actually simulated — the accuracy-vs-speedup trade the
// sampling layer sells.

func init() {
	register(Experiment{
		ID:    "fig6s",
		Paper: "Sec. IV-D",
		Title: "Sampled trace replay: phase-clustered vs full replay divergence",
		Run:   runFig6s,
	})
}

// samplingPaces picks a small pacing ladder for the divergence sweep: the
// point is to cover unloaded, mid-pressure and saturated traffic, not to
// redraw the whole curve.
func samplingPaces(s Scale) []float64 {
	if s == Quick {
		return []float64{2, 16, 128}
	}
	return []float64{0, 2, 8, 32, 128, 512}
}

func runFig6s(env *Env) (*Result, error) {
	spec := scaleSpec(platform.ZSimSkylake(), env.Scale)
	opt := benchOptions(env.Scale)
	// Capture a much longer run than the curve sweeps use: sampling only
	// pays off when the trace holds many windows of a span long enough
	// for queueing to reach steady state inside each one (~µs, tens of
	// latencies), and the default quick Measure yields barely a dozen.
	opt.Measure = 192 * sim.Microsecond
	mix := bench.Mix{StorePercent: 40}
	mapper := dram.NewMapper(&spec.DRAM)
	mk, err := memmodel.Factory(memmodel.KindDRAMsim3, spec, nil)
	if err != nil {
		return nil, err
	}

	r := &Result{
		Title: "Sampled vs full trace replay (DRAMsim3-like, " + spec.Name + ")",
		Header: []string{"pace [ns]", "records", "full BW [GB/s]", "sampled BW [GB/s]",
			"full lat [ns]", "sampled lat [ns]", "divergence", "speedup"},
	}

	var maxDiv float64
	for _, pace := range samplingPaces(env.Scale) {
		tr, _, err := trace.CapturePoint(env.Context(), spec, opt, mix, pace, captureLimit)
		if err != nil {
			return nil, err
		}
		if len(tr.Records) < 256 {
			continue // too short to window meaningfully
		}
		// The full and the sampled replay only read the trace, so they run
		// side by side. Captures stay serial: no second trace of this
		// length is ever live.
		var full trace.ReplayResult
		var sam *trace.SampledResult
		err = par.Do(env.Context(), 2, func(i int) error {
			if i == 0 {
				eng := sim.New()
				full = trace.Replay(eng, mk(eng), tr)
				return nil
			}
			var err error
			sam, err = trace.Sampled(mk, tr, trace.SampleConfig{
				Span:    2 * sim.Microsecond,
				BankRow: mapper.BankRow,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		if full.Reads == 0 {
			continue
		}
		div := sam.DivergencePct(full)
		if div > maxDiv {
			maxDiv = div
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", pace),
			fmt.Sprintf("%d", len(tr.Records)),
			fmt.Sprintf("%.2f", full.BWGBs),
			fmt.Sprintf("%.2f ± %.2f", sam.Estimate.BWGBs, sam.BWErrGBs),
			fmt.Sprintf("%.1f", full.ReadLatNs),
			fmt.Sprintf("%.1f ± %.1f", sam.Estimate.ReadLatNs, sam.LatErrNs),
			fmt.Sprintf("%.1f%%", div),
			fmt.Sprintf("%.1f×", sam.SpeedupX),
		})
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("fig6s: no sweep point captured enough records to sample")
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("Max bandwidth/latency divergence of the sampled estimates across the sweep: %.1f%%; estimates are deterministic (same trace + config → byte-identical result).", maxDiv))
	return r, nil
}
