package exp

import (
	"fmt"

	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

// Figs. 15–16: Mess application profiling of HPCG on Cascade Lake.

func init() {
	register(Experiment{
		ID:    "fig15",
		Paper: "Fig. 15",
		Title: "HPCG profile on the Cascade Lake curves with memory stress scores",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Paper: "Fig. 16",
		Title: "HPCG timeline: phases, MPI calls and per-window stress score",
		Run:   runFig16,
	})
}

// hpcgRun is the profiled HPCG execution fig15 and fig16 both report on.
type hpcgRun struct {
	profile *profile.Profile
	events  []profile.PhaseSpan
	spec    platform.Spec
}

// hpcgProfile runs the HPCG proxy with the window sampler and analyzes it
// against the platform's reference curves — once per environment; the run
// is shared, so callers only read it.
func hpcgProfile(env *Env) (*hpcgRun, error) {
	env.hpcg.once.Do(func() { env.hpcg.run, env.hpcg.err = profileHPCG(env) })
	return env.hpcg.run, env.hpcg.err
}

func profileHPCG(env *Env) (*hpcgRun, error) {
	spec := scaleSpec(platform.CascadeLake(), env.Scale)
	fam, err := env.reference(spec)
	if err != nil {
		return nil, err
	}

	app := workloads.NewPhasedApp(spec, workloads.HPCGPhases(), nil)
	dur := 2 * sim.Millisecond // several HPCG iterations
	if env.Scale == Quick {
		dur = 700 * sim.Microsecond
	}
	p := profile.Run(app, "HPCG proxy on "+spec.Name, fam, dur)
	return &hpcgRun{profile: p, events: app.Events(), spec: spec}, nil
}

func runFig15(env *Env) (*Result, error) {
	run, err := hpcgProfile(env)
	if err != nil {
		return nil, err
	}
	p, spec := run.profile, run.spec
	m := p.Family.Metrics()
	r := &Result{
		Title:  "HPCG on the " + spec.Name + " bandwidth–latency curves",
		Header: []string{"metric", "value"},
	}
	r.Families = append(r.Families, p.Family)
	r.Rows = append(r.Rows,
		[]string{"profiling windows", fmt.Sprintf("%d", len(p.Samples))},
		[]string{"saturation onset", fmt.Sprintf("%.0f GB/s", m.SatBWLowGBs)},
		[]string{"windows in saturated area", pct(p.SaturatedFraction())},
		[]string{"maximum stress score", fmt.Sprintf("%.2f", p.MaxStress())},
	)
	order, byPhase := p.MeanStressByPhase()
	for _, name := range order {
		r.Rows = append(r.Rows, []string{"mean stress in " + name, fmt.Sprintf("%.2f", byPhase[name])})
	}
	r.Notes = append(r.Notes,
		"Paper observation: most of the HPCG execution sits in the saturated bandwidth area; peak latencies reach 260–290 ns on Cascade Lake (Fig. 15).")
	return r, nil
}

func runFig16(env *Env) (*Result, error) {
	run, err := hpcgProfile(env)
	if err != nil {
		return nil, err
	}
	p, events, spec := run.profile, run.events, run.spec
	r := &Result{
		Title:  "HPCG timeline on " + spec.Name + ": two iterations",
		Header: []string{"window [µs]", "phase", "BW [GB/s]", "latency [ns]", "stress"},
	}
	// Render the window timeline across the first two iterations
	// (delimited by the second MPI_Allreduce occurrence, as the paper
	// selects its analysis region).
	var cutoff sim.Time
	mpiSeen := 0
	for _, e := range events {
		if e.MPI {
			mpiSeen++
			if mpiSeen == 4 { // two iterations × two Allreduce each
				cutoff = e.End
				break
			}
		}
	}
	if cutoff == 0 && len(events) > 0 {
		cutoff = events[len(events)-1].End
	}
	for _, smp := range p.Samples {
		if smp.Start > cutoff {
			break
		}
		phase := smp.Phase
		if smp.MPI {
			phase += " (MPI)"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f–%.0f", smp.Start.Seconds()*1e6, smp.End.Seconds()*1e6),
			phase,
			fmt.Sprintf("%.1f", smp.BWGBs),
			fmt.Sprintf("%.0f", smp.LatencyNs),
			fmt.Sprintf("%.2f", smp.Stress),
		})
	}
	r.Notes = append(r.Notes,
		"Compute phases carry high stress scores; MPI windows drop toward zero — the correlation structure of the paper's Fig. 16 timeline.",
		"Fine-grain profiling resolves stress variation between phases within a single iteration.")
	return r, nil
}
