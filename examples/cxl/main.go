// CXL: measure the modelled CXL memory expander's bandwidth–latency curves
// (the manufacturer's-model stand-in of Sec. V-C), show the full-duplex
// signature, and drive the Mess analytical simulator with the device curves
// at several concurrency levels.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/mess-sim/mess"
)

func main() {
	fmt.Println("measuring the CXL expander curves (full-duplex link + DDR5-5600) ...")
	fam := mess.CXLFamily()
	if err := mess.PlotCurves(os.Stdout, fam, 76, 20); err != nil {
		log.Fatal(err)
	}

	// The CXL signature: balanced read/write traffic beats both pure
	// directions — the inverse of every DDR system in the paper.
	balanced := fam.Nearest(0.5)
	pureRead := fam.Nearest(1.0)
	pureWrite := fam.Nearest(0.0)
	fmt.Printf("\nmax bandwidth by composition:\n")
	fmt.Printf("  100%% read:       %6.1f GB/s (one link direction saturates)\n", pureRead.MaxBW())
	fmt.Printf("  balanced 50/50:  %6.1f GB/s (both directions + DDR device)\n", balanced.MaxBW())
	fmt.Printf("  100%% write:      %6.1f GB/s\n", pureWrite.MaxBW())

	// Drive the Mess analytical simulator with the device curves: a
	// closed-loop requester with growing concurrency walks up the curve.
	fmt.Println("\nMess simulator over the CXL curves (closed-loop read traffic):")
	fmt.Printf("  %-12s %-14s %s\n", "outstanding", "bandwidth", "mean latency")
	for _, depth := range []int{4, 16, 64, 192} {
		bw, lat := runClosedLoop(fam, depth)
		fmt.Printf("  %-12d %8.1f GB/s %8.0f ns\n", depth, bw, lat)
	}
}

// runClosedLoop keeps depth reads outstanding against the Mess simulator
// for one simulated millisecond and reports (GB/s, mean latency ns). One
// completion callback serves every request: what it needs to know about
// the request it is called for (here the issue time) rides in the request.
func runClosedLoop(fam *mess.Family, depth int) (float64, float64) {
	eng := mess.NewEngine()
	model := mess.NewSimulator(eng, mess.SimulatorConfig{Family: fam})
	dur := mess.Millisecond

	completed := 0
	var latSum mess.SimTime
	var line uint64
	var issue func()
	done := func(at mess.SimTime, req *mess.MemRequest) {
		completed++
		latSum += at - req.Issued
		if eng.Now() < dur {
			issue()
		}
	}
	issue = func() {
		addr := (line%8)*(1<<28) + (line/8)*64
		line++
		model.Access(&mess.MemRequest{Addr: addr, Op: mess.MemRead, Issued: eng.Now(), Done: done})
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.RunUntil(dur)

	if completed == 0 {
		return 0, 0
	}
	bw := float64(completed*64) / dur.Seconds() / 1e9
	return bw, (latSum / mess.SimTime(completed)).Nanoseconds()
}
