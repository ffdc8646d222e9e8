// Command messprofile demonstrates Mess application profiling: it runs the
// HPCG proxy on a simulated platform, samples the memory-bandwidth counters
// per window, positions every window on the platform's bandwidth–latency
// curves, and reports the stress-score timeline (the Extrae/Paraver
// pipeline of Sec. VI).
//
// Sampled replay of a captured memory trace (phase clustering, one
// representative window per phase, reconstructed whole-trace bandwidth and
// latency with error bars) is messtrace's: messtrace -replay trace.txt
// -model reference -sampled.
//
// Usage:
//
//	messprofile -platform "Intel Cascade Lake" [-trace profile.prv] [-cache-dir ~/.cache/mess]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

func main() {
	var (
		name  = flag.String("platform", "Intel Cascade Lake", "platform to profile on")
		out   = flag.String("trace", "", "write the Paraver-flavoured trace to this file")
		durUs = flag.Int("duration-us", 2000, "simulated application duration in microseconds")
	)
	cache, tel := cli.CacheFlags(), cli.TelemetryFlags()
	flag.Parse()

	spec := cli.MustPlatform(*name)
	if *durUs < 1 {
		// No window fits: without this the run characterizes the platform
		// and then prints an empty profile.
		cli.Fatalf("-duration-us %d: the application must run for at least 1 µs", *durUs)
	}

	ctx, stop := cache.Context()
	defer stop()
	svc := cache.Service(tel.Set())
	fmt.Printf("characterizing %s for the profiling curves ...\n", spec.Name)
	ref, err := svc.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: exp.Sweep(exp.Quick)})
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Println("running the HPCG proxy with the window sampler ...")
	app := workloads.NewPhasedApp(spec, workloads.HPCGPhases(), nil)
	p := profile.Run(app, "HPCG proxy on "+spec.Name, ref.Family, sim.Time(*durUs)*sim.Microsecond)

	m := ref.Family.Metrics()
	fmt.Printf("\nprofile: %d windows; saturation onset %.0f GB/s\n", len(p.Samples), m.SatBWLowGBs)
	fmt.Printf("windows in the saturated area: %.0f%%\n", 100*p.SaturatedFraction())
	fmt.Printf("maximum stress score: %.2f\n\n", p.MaxStress())

	order, byPhase := p.MeanStressByPhase()
	var rows [][]string
	for _, ph := range order {
		rows = append(rows, []string{ph, fmt.Sprintf("%.2f", byPhase[ph])})
	}
	if err := plot.Table(os.Stdout, []string{"phase", "mean stress"}, rows); err != nil {
		cli.Fatal(err)
	}

	fmt.Println("\ntimeline (first 25 windows):")
	var trows [][]string
	for i, s := range p.Samples {
		if i == 25 {
			break
		}
		phase := s.Phase
		if s.MPI {
			phase += " (MPI)"
		}
		trows = append(trows, []string{
			fmt.Sprintf("%.0f–%.0f µs", s.Start.Seconds()*1e6, s.End.Seconds()*1e6),
			phase,
			fmt.Sprintf("%.1f", s.BWGBs),
			fmt.Sprintf("%.0f", s.LatencyNs),
			fmt.Sprintf("%.2f", s.Stress),
		})
	}
	if err := plot.Table(os.Stdout, []string{"window", "phase", "BW [GB/s]", "latency [ns]", "stress"}, trows); err != nil {
		cli.Fatal(err)
	}

	if *out != "" {
		if err := cli.WriteFile(*out, p.WriteTrace); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *out)
	}
}
