// Quickstart: characterize a platform with the Mess benchmark, print its
// bandwidth–latency curves and the Table-I-style derived metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/mess-sim/mess"
)

func main() {
	// Pick one of the paper's platforms (see mess.Platforms()).
	spec := mess.Skylake()
	fmt.Println("platform:", spec.String())

	// Run a reduced Mess benchmark sweep: three read/write kernel mixes,
	// a coarse pacing ladder. mess.BenchmarkOptions{} runs the full
	// sweep instead; cancelling the context stops either at the next
	// measurement point.
	res, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		log.Fatal(err)
	}

	// The curve family is the central artifact: latency as a function of
	// used bandwidth, one curve per traffic composition.
	if err := mess.PlotCurves(os.Stdout, res.Family, 76, 20); err != nil {
		log.Fatal(err)
	}

	// Derived metrics (the paper's Table I quantities).
	m := res.Family.Metrics()
	fmt.Println()
	fmt.Println("unloaded latency:     ", fmt.Sprintf("%.0f ns", m.UnloadedLatencyNs))
	fmt.Println("maximum latency range:", fmt.Sprintf("%.0f–%.0f ns", m.MaxLatencyMinNs, m.MaxLatencyMaxNs))
	fmt.Println("saturated bandwidth:  ", fmt.Sprintf("%.0f–%.0f GB/s (%.0f–%.0f%% of theoretical)",
		m.SatBWLowGBs, m.SatBWHighGBs, 100*m.SatLowFrac(), 100*m.SatHighFrac()))

	// Position an arbitrary workload on the curves: 80 GB/s of pure-read
	// traffic, and its memory stress score.
	bw := 80.0
	lat := res.Family.LatencyAt(1.0, bw)
	stress := res.Family.StressScore(1.0, bw, mess.DefaultStressWeights)
	fmt.Printf("\nat %.0f GB/s of pure reads: latency ≈ %.0f ns, stress score %.2f\n", bw, lat, stress)
}
