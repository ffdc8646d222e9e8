// Command messexp reproduces the paper's tables and figures. Each
// experiment renders a structured report: tables, ASCII curve figures and
// reproduction notes.
//
// All experiments in one invocation share a single experiment environment
// and its characterization service, so `-run all` performs each unique
// characterization — and each simulation several experiments report on —
// exactly once; with -cache-dir the curves and every other simulation
// output a report prints persist across invocations, so a second run over
// the same directory simulates nothing but tablespeed's timed sweeps.
//
// Usage:
//
//	messexp -list
//	messexp -run fig2
//	messexp -run all -scale full -outdir results/ [-cache-dir ~/.cache/mess]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/telemetry"
)

func main() {
	var (
		run    = flag.String("run", "", "experiment id (fig2 … fig18, table1, tablespeed, openpiton-bug) or \"all\"")
		scale  = flag.String("scale", "quick", "quick (scaled platforms, coarse sweeps) or full (paper configurations)")
		outdir = flag.String("outdir", "", "also write each report to <outdir>/<id>.txt")
		list   = flag.Bool("list", false, "list experiments and exit")
	)
	cache, tel := cli.CacheFlags(), cli.TelemetryFlags().WithTrace()
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-14s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	s := cli.MustScale(*scale)

	exps := exp.All()
	if *run != "all" {
		e, ok := exp.ByID(*run)
		if !ok {
			cli.Fatalf("unknown experiment %s (-list shows them)", *run)
		}
		exps = []exp.Experiment{e}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			cli.Fatal(err)
		}
	}

	ctx, stop := cache.Context()
	defer stop()
	svc := cache.Service(tel.Set())
	env := exp.NewEnv(s, svc)
	env.Ctx = ctx
	// Progress and failure reporting go through the structured logger: each
	// slog record is written with a single atomic Write, so interleaved
	// output from concurrent characterizations never shears a line.
	log := tel.Set().Logger()
	track := tel.Set().Trace().NewTrack("messexp", "experiments")
	failed := 0
	for _, e := range exps {
		id := e.ID
		if ctx.Err() != nil {
			// Cancelled (SIGINT or -timeout): stop cleanly instead of
			// burning through — and failing — every remaining experiment.
			log.Error("run cancelled", "cause", ctx.Err())
			failed++
			break
		}
		start := time.Now()
		log.Info("experiment starting", "experiment", id, "scale", s.String())
		sp := tel.Set().Trace().Begin(track, "experiment "+id)
		res, err := e.Run(env)
		if err != nil {
			sp.End(telemetry.String("outcome", "error"))
			log.Error("experiment failed", "experiment", id, "err", err,
				"duration", time.Since(start).Round(time.Millisecond).String())
			failed++
			continue
		}
		sp.End(telemetry.String("outcome", "ok"))
		fmt.Printf("\n")
		if err := res.Render(os.Stdout); err != nil {
			cli.Fatal(err)
		}
		log.Info("experiment done", "experiment", id, "scale", s.String(),
			"duration", time.Since(start).Round(time.Millisecond).String())

		if *outdir != "" {
			path := filepath.Join(*outdir, id+".txt")
			f, err := os.Create(path)
			if err != nil {
				cli.Fatal(err)
			}
			if err := res.Render(f); err != nil {
				f.Close()
				cli.Fatal(err)
			}
			f.Close()
		}
	}
	cli.PrintStats(svc)
	if err := tel.WriteTrace(); err != nil {
		cli.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
