// Command messsim compares memory models under an unchanged CPU side: it
// characterizes each model with the Mess benchmark (bandwidth–latency
// curves) and optionally evaluates workload IPC error against the detailed
// reference model — the Sec. IV/V methodology as a tool.
//
// The reference and per-model characterizations flow through one
// characterization service; with -cache-dir they persist across runs, and
// with -cache-url (or $MESS_CURVE_URL) they are shared across machines
// via a cmd/messcurved curve server.
//
// Usage:
//
//	messsim -platform "Intel Skylake" -models fixed,md1,mess
//	messsim -platform "Amazon Graviton 3" -ipc -models fixed,internal-ddr,ramulator2,mess
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/workloads"
)

func main() {
	var (
		name   = flag.String("platform", "Intel Skylake", "platform (CPU side) to evaluate under")
		models = flag.String("models", "fixed,md1,internal-ddr,dramsim3,ramulator,mess", "comma-separated model kinds")
		ipc    = flag.Bool("ipc", false, "run the workload IPC-error evaluation instead of curves")
		full   = flag.Bool("full", false, "use the full benchmark sweep")
	)
	cache, tel := cli.CacheFlags(), cli.TelemetryFlags()
	flag.Parse()

	spec := cli.MustPlatform(*name)
	// A misspelt kind ends the run here, not after the reference sweep; all
	// the mess kind lacks is that sweep's curves, and it resolves with them.
	kinds := parseKinds(*models)
	for _, kind := range kinds {
		if _, err := memmodel.Factory(kind, spec, nil); err != nil && kind != memmodel.KindMess {
			cli.Fatal(err)
		}
	}

	opt := bench.QuickOptions()
	if *full {
		opt = bench.Options{}
	}

	ctx, stop := cache.Context()
	defer stop()
	svc := cache.Service(tel.Set())
	fmt.Printf("reference characterization of %s ...\n", spec.Name)
	refArt, err := svc.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: opt})
	if err != nil {
		cli.Fatal(err)
	}
	refFam := refArt.Family
	mks := make([]mem.BackendFactory, len(kinds))
	for i, kind := range kinds {
		if mks[i], err = memmodel.Factory(kind, spec, refFam); err != nil {
			cli.Fatal(err)
		}
	}
	if *ipc {
		runIPC(spec, kinds, mks)
		return
	}

	fmt.Println("\n== reference (detailed DRAM model) ==")
	if err := plot.CurveFamily(os.Stdout, refFam, 72, 18); err != nil {
		cli.Fatal(err)
	}
	for i, kind := range kinds {
		o := opt
		o.Backend = mks[i]
		art, err := svc.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: o, Tag: "model:" + string(kind)})
		if err != nil {
			cli.Fatal(err)
		}
		fam := art.Family
		fam.Label = spec.Name + " + " + string(kind)
		fmt.Printf("\n== %s ==\n", fam.Label)
		if err := plot.CurveFamily(os.Stdout, fam, 72, 18); err != nil {
			cli.Fatal(err)
		}
		fmt.Println(fam.Metrics().String())
	}
	cli.PrintStats(svc)
}

func runIPC(spec platform.Spec, kinds []memmodel.Kind, mks []mem.BackendFactory) {
	refResults, err := workloads.EvalSuite(spec, workloads.Options{})
	if err != nil {
		cli.Fatal(err)
	}
	header := []string{"model"}
	for _, b := range refResults {
		header = append(header, b.Name)
	}
	header = append(header, "average")
	var rows [][]string
	for i, kind := range kinds {
		got, err := workloads.EvalSuite(spec, workloads.Options{Backend: mks[i]})
		if err != nil {
			cli.Fatal(err)
		}
		row := []string{string(kind)}
		errs, mean := workloads.IPCErrors(refResults, got)
		for _, e := range errs {
			row = append(row, fmt.Sprintf("%.1f%%", 100*e))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*mean))
		rows = append(rows, row)
	}
	fmt.Println("\nabsolute IPC error vs reference platform:")
	if err := plot.Table(os.Stdout, header, rows); err != nil {
		cli.Fatal(err)
	}
}

func parseKinds(s string) []memmodel.Kind {
	var out []memmodel.Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		out = append(out, memmodel.Kind(part))
	}
	return out
}
