// Command messbench runs the Mess benchmark against a simulated platform
// and emits its bandwidth–latency curve family: an ASCII figure, derived
// metrics, and optionally the release-format CSV.
//
// With -cache-dir the curve family persists under the directory keyed by
// its content fingerprint, so re-running the same characterization loads
// it instead of simulating.
//
// Usage:
//
//	messbench -platform "Intel Skylake" [-scale quick|full] [-out curves.csv] [-cache-dir ~/.cache/mess]
//	messbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
)

func main() {
	var (
		name  = flag.String("platform", "Intel Skylake", "platform to characterize (see -list)")
		list  = flag.Bool("list", false, "list available platforms and exit")
		scale = flag.String("scale", "quick", "quick (coarse sweep) or full (the paper's sweep; slower)")
		out   = flag.String("out", "", "write the curve family as CSV to this file")
	)
	cache, tel := cli.CacheFlags(), cli.TelemetryFlags()
	flag.Parse()

	if *list {
		for _, p := range platform.All() {
			fmt.Println(" ", p.String())
		}
		return
	}

	spec := cli.MustPlatform(*name)
	opt := exp.Sweep(cli.MustScale(*scale))

	ctx, stop := cache.Context()
	defer stop()
	svc := cache.Service(tel.Set())
	fmt.Printf("characterizing %s ...\n", spec.String())
	start := time.Now()
	art, err := svc.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: opt})
	if err != nil {
		cli.Fatal(err)
	}
	points := 0
	for _, c := range art.Family.Curves {
		points += len(c.Points)
	}
	switch art.Source {
	case charz.SourceDisk, charz.SourceRemote:
		fmt.Printf("loaded from %s cache (%s) in %s (%d curve points)\n\n",
			art.Source, art.Key.Short(), time.Since(start).Round(time.Millisecond), points)
	default:
		fmt.Printf("done in %s (%d curve points)\n\n",
			time.Since(start).Round(time.Millisecond), points)
	}

	if err := plot.CurveFamily(os.Stdout, art.Family, 76, 22); err != nil {
		cli.Fatal(err)
	}
	m := art.Family.Metrics()
	fmt.Printf("\n%s\n", m.String())

	if *out != "" {
		if err := cli.WriteFile(*out, art.Family.WriteCSV); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("curves written to %s\n", *out)
	}
}
