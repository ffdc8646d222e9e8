// Command benchmark is the repository's end-to-end, layer-attributed
// benchmark: seven workloads over the whole Mess stack, each measured
// untraced for the numbers a user sees and traced for the per-layer ones.
// BENCHMARK.json at the repository root names every metric; README.md in
// this directory says what each is for and how to read the output.
//
// One workload, one pass — the form the acceptance driver runs:
//
//	bash benchmark/run.sh --workload char-read --seed 1 --seconds 10 --trace 0
//
// prints the metrics by name and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Everything at once (every workload, untraced then traced):
//
//	bash benchmark/run.sh -seed 1 -out benchmark/out/results.json
//
// Comparing two result files, or reading one file's run-to-run spread:
//
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -compare a.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// allWorkloads in the fixed order they run in.
var allWorkloads = []workload{
	{name: "char-read", unit: "sweep points", setup: setupCharRead},
	{name: "char-write", unit: "sweep points", setup: setupCharWrite},
	{name: "point-sharded", unit: "sweep points", setup: setupPointSharded},
	{name: "model-zoo", unit: "sweep points", setup: setupModelZoo},
	{name: "trace-profile", unit: "trace records replayed in full", setup: setupTraceProfile},
	{name: "curve-tiers", unit: "families loaded or saved", setup: setupCurveTiers},
	{name: "registry-quick", unit: "experiments run and rendered", setup: setupRegistryQuick},
}

// The sandbox has two cores; everything is sized to that and the output
// records it, because no timing here means anything at another setting.
const gomaxprocs = 2

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// run is main with its defers intact: 0 when every output was right, 1 when
// some were wrong, 2 with an error when nothing could be reported.
func run() (int, error) {
	var (
		names    = flag.String("workload", "", "workload name[,name]; empty runs all")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "how long one pass of one workload measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "", "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), empty = both")
		scale    = flag.Float64("iterations-scale", 1, "multiply every workload's per-iteration work")
		smoke    = flag.Bool("smoke", false, "one tiny iteration of each workload")
		out      = flag.String("out", "", "write the run records to this results file")
		appendTo = flag.Bool("append", false, "add to the -out file instead of replacing it")
		dir      = flag.String("dir", filepath.Join("benchmark", "out"), "scratch and output directory, inside the checkout")
		compare  = flag.Bool("compare", false, "compare the two results files given as arguments (one file: print its spreads)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	spec, err := loadSpec("BENCHMARK.json") // the command runs from the checkout's root
	if err != nil {
		return 2, err
	}
	if *compare {
		if err := compareFiles(spec, flag.Args()); err != nil {
			return 1, err
		}
		return 0, nil
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		return 2, err
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "":
		passes = []bool{false, true}
	default:
		return 2, fmt.Errorf("-trace must be 0 or 1, got %q", *trace)
	}
	o := runOptions{cfg: config{seed: *seed, scale: *scale}, seconds: *seconds}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		o.cfg.scale, o.once = 0.1, true
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return 2, err
	}
	if o.cfg.dir, err = os.MkdirTemp(*dir, "run-"); err != nil {
		return 2, err
	}
	defer os.RemoveAll(o.cfg.dir)

	file := resultsFile{}
	if *out != "" && *appendTo {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &file); err != nil {
				return 2, fmt.Errorf("%s: %w", *out, err)
			}
		}
	}
	file.Env = currentEnv()

	// The result object is the last line. A run of several workloads has
	// no single set of metrics, so it closes with the totals only.
	line := contractLine{Metrics: map[string]contractVal{}}
	for _, traced := range passes {
		for _, w := range selected {
			o.traced, o.traceOut = traced, ""
			if traced {
				o.traceOut = filepath.Join(*dir, "trace-"+w.name+".json")
			}
			rec, err := runWorkload(w, o)
			if err != nil {
				return 2, err
			}
			if err := conform(spec, &rec); err != nil {
				return 2, err
			}
			printRun(rec)
			file.Runs = append(file.Runs, rec)
			line.Attempted += rec.Attempted
			line.Failed += rec.Failed
			if len(passes)*len(selected) == 1 {
				for name, v := range rec.Metrics {
					line.Metrics[name] = contractVal{Value: v.Value, Unit: v.Unit}
				}
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return allWorkloads, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range allWorkloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// conform makes the record say exactly what BENCHMARK.json declares for
// its pass: every declared metric present with the declared unit, nothing
// undeclared. A per-layer metric the workload does not exercise reads 0.
func conform(spec *benchSpec, rec *runRecord) error {
	declared := spec.EndToEnd
	if rec.Traced {
		declared = spec.PerLayer
	}
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		v, ok := rec.Metrics[d.Name]
		if !ok && !rec.Traced {
			return fmt.Errorf("%s: end-to-end metric %q was not measured", rec.Workload, d.Name)
		}
		if v.Unit != "" && v.Unit != d.Unit {
			return fmt.Errorf("%s: metric %q measured in %q, declared in %q", rec.Workload, d.Name, v.Unit, d.Unit)
		}
		v.Unit = d.Unit
		rec.Metrics[d.Name] = v
		if !rec.Traced && d.Bound > 0 && v.Value != 0 && (v.Q3-v.Q1)/v.Value > d.Bound {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf(
				"%s: iteration quartiles %.4g..%.4g are wider than the %.0f%% bound", d.Name, v.Q1, v.Q3, 100*d.Bound))
		}
	}
	for name := range rec.Metrics {
		if !known[name] {
			return fmt.Errorf("%s: metric %q is not declared in BENCHMARK.json", rec.Workload, name)
		}
	}
	return nil
}

func printRun(rec runRecord) {
	pass := "untraced"
	if rec.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s  seed %d  %s pass  %d iterations of %d %s  gomaxprocs %d\n",
		rec.Workload, rec.Seed, pass, rec.Iterations, rec.OpsPerIter, rec.OpUnit, gomaxprocs)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		if rec.Traced && v.Value == 0 {
			continue // layer not exercised by this workload
		}
		fmt.Printf("%-34s %14.6g %-6s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf("  median of %d", v.Samples)
			if v.Q1 != 0 || v.Q3 != 0 {
				fmt.Printf(", quartiles %.6g .. %.6g", v.Q1, v.Q3)
			}
		}
		fmt.Println()
	}
	if !rec.Traced {
		fmt.Printf("times are scaled to the reference host: ×%.3f here (median iteration read %.4g s on the clock)\n", rec.HostSpeed, rec.RawWallS)
	}
	fmt.Printf("checked %d outputs, %d wrong; digest %.16s\n", rec.Attempted, rec.Failed, rec.Digest)
	for _, n := range rec.Notes {
		fmt.Println("WRONG:", n)
	}
	for _, w := range rec.Warnings {
		fmt.Println("warning:", w)
	}
}
