package exp

import (
	"context"
	"fmt"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
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

// sampledOptions is the sweep fig6s captures from: a much longer run than
// the curve sweeps use. Sampling only pays off when the trace holds many
// windows of a span long enough for queueing to reach steady state inside
// each one (~µs, tens of latencies), and the default quick Measure yields
// barely a dozen.
func sampledOptions(s Scale) bench.Options {
	opt := Sweep(s)
	opt.Measure = 192 * sim.Microsecond
	return opt
}

// sampledSpan is the window span of fig6s's sampled replays.
const sampledSpan = 2 * sim.Microsecond

// minSampledRecords is the shortest capture fig6s windows: shorter ones
// are too short to window meaningfully.
const minSampledRecords = 256

// sampledPoint is what fig6s simulates at one pace: the capture's length,
// then — for a capture of at least minSampledRecords — its full replay and
// the sampled replay's estimate, error bars, divergence from the full
// replay and speedup.
type sampledPoint struct {
	Records                 int
	Full, Estimate          trace.ReplayResult
	BWErrGBs, LatErrNs      float64
	DivergencePct, SpeedupX float64
}

// sampledRequest names fig6s's capture and replays at one pace: the sweep
// narrowed to the one (mix, pace) point it captures.
func sampledRequest(spec platform.Spec, s Scale, pace float64) charz.ArtifactRequest {
	opt := sampledOptions(s)
	opt.Mixes, opt.PacesNs = []bench.Mix{sampledMix}, []float64{pace}
	return charz.ArtifactRequest{Kind: "trace.sampled", Spec: spec, Bench: &opt,
		Tag: fmt.Sprintf("model:%s;limit=%d;min=%d;span=%d", memmodel.KindDRAMsim3, captureLimit, minSampledRecords, sampledSpan)}
}

// sampledMix is the kernel mix fig6s captures.
var sampledMix = bench.Mix{StorePercent: 40}

func runFig6s(env *Env) (*Result, error) {
	spec := scaleSpec(platform.ZSimSkylake(), env.Scale)
	opt := sampledOptions(env.Scale)
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
	for _, pace := range scales[env.Scale].sampledPaces {
		pt, err := charz.Memo(env.Context(), env.Charz, sampledRequest(spec, env.Scale, pace), func(ctx context.Context) (sampledPoint, error) {
			tr, _, err := trace.CapturePoint(ctx, spec, opt, sampledMix, pace, captureLimit)
			if err != nil {
				return sampledPoint{}, err
			}
			pt := sampledPoint{Records: tr.Len()}
			if pt.Records < minSampledRecords {
				return pt, nil
			}
			// The full and the sampled replay only read the packed trace,
			// each through a cursor of its own, so they run side by side.
			// Captures stay serial: one packed capture, about 6.5 bytes a
			// record, is live at a time.
			var sam *trace.SampledResult
			err = par.Do(ctx, 2, func(i int) error {
				if i == 0 {
					eng := sim.New()
					pt.Full = trace.Replay(eng, mk(eng), tr)
					return nil
				}
				var err error
				sam, err = trace.Sampled(mk, tr, trace.SampleConfig{
					Span:    sampledSpan,
					BankRow: mapper.BankRow,
				})
				return err
			})
			if err != nil {
				return sampledPoint{}, err
			}
			pt.Estimate, pt.BWErrGBs, pt.LatErrNs = sam.Estimate, sam.BWErrGBs, sam.LatErrNs
			pt.DivergencePct, pt.SpeedupX = sam.DivergencePct(pt.Full), sam.SpeedupX
			return pt, nil
		})
		if err != nil {
			return nil, err
		}
		if pt.Records < minSampledRecords || pt.Full.Reads == 0 {
			continue
		}
		div := pt.DivergencePct
		if div > maxDiv {
			maxDiv = div
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", pace),
			fmt.Sprintf("%d", pt.Records),
			fmt.Sprintf("%.2f", pt.Full.BWGBs),
			fmt.Sprintf("%.2f ± %.2f", pt.Estimate.BWGBs, pt.BWErrGBs),
			fmt.Sprintf("%.1f", pt.Full.ReadLatNs),
			fmt.Sprintf("%.1f ± %.1f", pt.Estimate.ReadLatNs, pt.LatErrNs),
			fmt.Sprintf("%.1f%%", div),
			fmt.Sprintf("%.1f×", pt.SpeedupX),
		})
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("fig6s: no sweep point captured enough records to sample")
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("Max bandwidth/latency divergence of the sampled estimates across the sweep: %.1f%%; estimates are deterministic (same trace + config → byte-identical result).", maxDiv))
	return r, nil
}
