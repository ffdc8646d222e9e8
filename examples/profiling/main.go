// Profiling: the Mess application-profiling pipeline of Sec. VI on the
// HPCG proxy — sample the bandwidth counters per window, position every
// window on the platform's curves, derive stress scores and correlate them
// with the application's phase timeline.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/mess-sim/mess"
)

func main() {
	spec := mess.CascadeLake()

	// Step 1: the platform's curve family (normally measured once and
	// reused; here a quick sweep).
	fmt.Printf("characterizing %s ...\n", spec.Name)
	res, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		log.Fatal(err)
	}
	fam := res.Family

	// Step 2: run the application with the window sampler attached (the
	// Extrae role).
	fmt.Println("running the HPCG proxy ...")
	app := mess.NewHPCGProxy(spec)
	sampler := mess.NewSampler(app.Eng, app.Counting, 10*mess.Microsecond)
	sampler.Start()
	app.Run(1500 * mess.Microsecond)
	sampler.Stop()

	// Step 3: analysis (the Paraver role): position windows on the
	// curves and attach the phase timeline the application recorded.
	p := mess.BuildProfile("HPCG on "+spec.Name, fam, sampler.Windows(), app.Events(), mess.DefaultStressWeights)

	m := fam.Metrics()
	fmt.Printf("\nsaturation onset: %.0f GB/s; windows in the saturated area: %.0f%%\n",
		m.SatBWLowGBs, 100*p.SaturatedFraction())
	fmt.Printf("maximum stress score: %.2f\n\n", p.MaxStress())

	order, byPhase := p.MeanStressByPhase()
	fmt.Println("mean stress score per phase:")
	for _, name := range order {
		fmt.Printf("  %-14s %.2f\n", name, byPhase[name])
	}

	fmt.Println("\ntimeline excerpt:")
	for i, s := range p.Samples {
		if i == 15 {
			break
		}
		marker := ""
		if s.MPI {
			marker = " (MPI)"
		}
		fmt.Printf("  %5.0f–%5.0f µs  %-12s %6.1f GB/s  %4.0f ns  stress %.2f%s\n",
			s.Start.Seconds()*1e6, s.End.Seconds()*1e6, s.Phase, s.BWGBs, s.LatencyNs, s.Stress, marker)
	}
}
