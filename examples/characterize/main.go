// Characterize all eight platforms of the paper's Table I and print the
// quantitative comparison: saturated-bandwidth range, unloaded latency and
// maximum latency range, next to the paper's measured values.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/mess-sim/mess"
)

func main() {
	specs := mess.Platforms()

	// The characterization service fans the eight platforms out over its
	// bounded worker pool and memoizes each family by content-addressed
	// key, so repeat requests cost nothing.
	svc := mess.NewCharacterizationService(mess.CharacterizationConfig{})
	reqs := make([]mess.CharacterizationRequest, len(specs))
	for i, spec := range specs {
		opt := mess.QuickBenchmarkOptions()
		if spec.UnloadedLatencyNs > 200 {
			// GPU-class platforms (H100) queue so deeply at saturation
			// that the quick 15 µs window records no chase samples.
			opt.Measure = 45 * mess.Microsecond
		}
		reqs[i] = mess.CharacterizationRequest{Spec: spec, Options: opt}
	}
	arts, err := svc.CharacterizeAllContext(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}

	paperUnloaded := []float64{89, 85, 113, 96, 129, 109, 122, 363}
	paperSat := []string{"72–91%", "68–87%", "57–71%", "67–91%", "63–95%", "60–86%", "72–92%", "51–95%"}

	fmt.Printf("%-24s %-14s %-10s %-12s %-8s %s\n",
		"platform", "sat. range", "(paper)", "unloaded", "(paper)", "max latency")
	for i, art := range arts {
		m := art.Family.Metrics()
		fmt.Printf("%-24s %3.0f–%3.0f%%      %-10s %6.0f ns    %4.0f ns  %.0f–%.0f ns\n",
			specs[i].Name,
			100*m.SatLowFrac(), 100*m.SatHighFrac(), paperSat[i],
			m.UnloadedLatencyNs, paperUnloaded[i],
			m.MaxLatencyMinNs, m.MaxLatencyMaxNs)
	}
	stats := svc.Stats()
	fmt.Printf("\nservice ran %d simulations for %d platforms\n", stats.Runs, len(specs))
	fmt.Println("(quick sweep; run cmd/messexp -run table1 -scale full for the dense version)")
}
