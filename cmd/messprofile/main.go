// Command messprofile demonstrates Mess application profiling: it runs the
// HPCG proxy on a simulated platform, samples the memory-bandwidth counters
// per window, positions every window on the platform's bandwidth–latency
// curves, and reports the stress-score timeline (the Extrae/Paraver
// pipeline of Sec. VI).
//
// With -replay-trace it instead profiles a captured memory trace (see
// messtrace -capture): the trace is windowed, each window fingerprinted by
// its memory-access vector and clustered into behaviour phases, and one
// representative window per phase is replayed through the platform's
// detailed DRAM model — the sampled-simulation pipeline, reporting the
// phase breakdown plus reconstructed whole-trace bandwidth and latency
// with error bars.
//
// Usage:
//
//	messprofile -platform "Intel Cascade Lake" [-trace profile.prv] [-cache-dir ~/.cache/mess]
//	messprofile -platform "Intel Cascade Lake" -cache-url http://curves.internal:9400
//	messprofile -platform "Intel Skylake" -replay-trace trace.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
	"github.com/mess-sim/mess/internal/workloads"
)

func main() {
	var (
		name   = flag.String("platform", "Intel Cascade Lake", "platform to profile on")
		out    = flag.String("trace", "", "write the Paraver-flavoured trace to this file")
		durUs  = flag.Int("duration-us", 2000, "simulated application duration in microseconds")
		replay = flag.String("replay-trace", "", "profile this captured memory trace by behaviour-phase clustering instead of running the HPCG proxy")
	)
	cache, tel := cli.CacheFlags(), cli.TelemetryFlags()
	flag.Parse()

	spec := cli.MustPlatform(*name)

	if *replay != "" {
		profileTrace(spec, *replay, tel)
		return
	}
	if *durUs < 1 {
		// No window fits: without this the run characterizes the platform
		// and then prints an empty profile.
		cli.Fatalf("-duration-us %d: the application must run for at least 1 µs", *durUs)
	}

	ctx, stop := cache.Context()
	defer stop()
	svc := cache.Service(tel.Set())
	fmt.Printf("characterizing %s for the profiling curves ...\n", spec.Name)
	ref, err := svc.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: bench.QuickOptions()})
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
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close()
		if err := p.WriteTrace(f); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *out)
	}
}

// profileTrace is the sampled-replay profiling mode: cluster a captured
// trace's windows by access-vector and report the phase breakdown plus the
// reconstructed whole-trace estimates.
func profileTrace(spec platform.Spec, path string, tel *cli.Telemetry) {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		cli.Fatal(err)
	}

	mapper := dram.NewMapper(&spec.DRAM)
	mk := func(eng *sim.Engine) mem.Backend { return dram.New(eng, spec.DRAM) }
	res, err := trace.Sampled(mk, tr, trace.SampleConfig{BankRow: mapper.BankRow, Telemetry: tel.Set()})
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("phase-cluster profile of %s on %s (%d records, %d windows of %.2f µs):\n",
		path, spec.Name, res.TotalRecords, len(res.Windows), res.WindowSpan.Seconds()*1e6)
	var rows [][]string
	for i := range res.Clusters {
		c := &res.Clusters[i]
		if c.Windows == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("phase %d", i),
			fmt.Sprintf("%d", c.Windows),
			fmt.Sprintf("%.0f%%", 100*c.Weight),
			fmt.Sprintf("%.1f", c.BWGBs),
			fmt.Sprintf("%.1f", c.ReadLatNs),
			fmt.Sprintf("%.3f", c.Stretch),
			fmt.Sprintf("%.2f", c.Centroid.RowHit),
			fmt.Sprintf("%.2f", c.Centroid.ReadFrac),
		})
	}
	if err := plot.Table(os.Stdout,
		[]string{"phase", "windows", "time", "BW [GB/s]", "latency [ns]", "stretch", "row-hit*", "read*"}, rows); err != nil {
		cli.Fatal(err)
	}
	fmt.Println("(* centroid coordinates, min-max normalized over this trace)")
	fmt.Printf("\nreconstructed estimates (%.1f× fewer records simulated):\n", res.SpeedupX)
	fmt.Printf("  bandwidth:        %.1f ± %.1f GB/s\n", res.Estimate.BWGBs, res.BWErrGBs)
	fmt.Printf("  mean read latency: %.1f ± %.1f ns\n", res.Estimate.ReadLatNs, res.LatErrNs)
}
