// Simulator-eval: the Sec. V methodology in miniature — measure a
// platform's curves, build the Mess analytical simulator from them, and
// compare workload IPC under Mess and under baseline memory models against
// the detailed reference.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"github.com/mess-sim/mess"
)

func main() {
	spec := mess.Skylake()

	fmt.Printf("reference characterization of %s ...\n", spec.Name)
	ref, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running STREAM + latency benchmarks on the reference platform ...")
	refResults, err := mess.RunEvalSuite(spec, mess.WorkloadOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Models go by name; mess.MemoryModels() lists them all.
	kinds := []mess.MemoryModelKind{"fixed", "md1", "mess"}
	fmt.Printf("\nabsolute IPC error vs the reference platform:\n")
	fmt.Printf("%-14s", "model")
	for _, b := range refResults {
		fmt.Printf(" %14s", b.Name)
	}
	fmt.Printf(" %10s\n", "average")

	for _, kind := range kinds {
		kind := kind
		o := mess.WorkloadOptions{Backend: func(eng *mess.Engine) mess.MemBackend {
			m, err := mess.NewMemoryModel(kind, eng, spec, ref.Family)
			if err != nil {
				log.Fatal(err)
			}
			return m
		}}
		got, err := mess.RunEvalSuite(spec, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s", kind)
		sum := 0.0
		for i := range refResults {
			e := math.Abs(got[i].IPC-refResults[i].IPC) / refResults[i].IPC
			sum += e
			fmt.Printf(" %13.1f%%", 100*e)
		}
		fmt.Printf(" %9.1f%%\n", 100*sum/float64(len(refResults)))
	}
	fmt.Println("\n(the Mess analytical simulator should show the lowest error, as in Figs. 11 and 13)")
}
