package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactLayerMetrics are the per-layer metrics that are counts or simulated
// statistics: for one seed they must repeat bit for bit, so two commits
// compare by equality, not by ratio.
var exactLayerMetrics = []string{
	"sim.events", "sim.shard.windows", "sim.shard.messages", "bench.points",
	"dram.allocs_per_req", "dram.row_hit_frac", "dram.row_miss_frac", "dram.requests",
	"mem.allocs_per_cycle", "messsim.allocs_per_req",
	"charz.runs", "charz.mem_hits", "charz.disk_hits", "charz.remote_hits", "charz.dedup_ratio",
	"core.csv_bytes_per_family", "curvestore.hits", "curvestore.misses", "curvestore.revalidations",
	"curvestore.bytes_out", "curvestore.gzip_ratio",
	"memmodel.mess_ipc_err_pct", "trace.sampled_divergence_pct", "trace.sampled_record_frac", "trace.sampled_speedup_x",
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians, the ratio with its base, the bound and a verdict; exact metrics
// and digests compare by equality. With one file it prints that file's
// run-to-run spreads against the bounds — the acceptance procedure's
// "ten runs, ten seeds" check. It returns an error when anything
// regressed or an exact value differs.
func compareFiles(spec *benchSpec, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two results files")
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	if len(paths) == 1 {
		return printSpreads(spec, a)
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	fmt.Printf("base: %s (%s, %s)\nnew:  %s (%s, %s)\n", paths[0], a.Env.GitCommit, a.Env.GoVersion, paths[1], b.Env.GitCommit, b.Env.GoVersion)
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Printf("warning: gomaxprocs differs (%d vs %d); timings are not comparable\n", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	bad := 0
	fmt.Printf("\n%-15s %-12s %13s %13s %9s %6s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				// The runs of one side disagree by more than the bound:
				// "no worse" cannot be told from "worse" at this width.
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*spread(va), 100*spread(vb))
			}
			fmt.Printf("%-15s %-12s %13.6g %13.6g %9.4f %5.0f%%  %s\n", w.Name, m.Name, ma, mb, mb/ma, 100*m.Bound, verdict)
		}
	}

	// Simulated statistics: equal seeds must give equal digests and counts.
	type runKey struct {
		workload string
		seed     uint64
		traced   bool
	}
	index := map[runKey]runRecord{}
	for _, r := range a.Runs {
		index[runKey{r.Workload, r.Seed, r.Traced}] = r
	}
	fmt.Println()
	for _, r := range b.Runs {
		base, ok := index[runKey{r.Workload, r.Seed, r.Traced}]
		if !ok {
			continue
		}
		if base.Digest != r.Digest {
			fmt.Printf("%-15s seed %d: digest differs: %.16s vs %.16s\n", r.Workload, r.Seed, base.Digest, r.Digest)
			bad++
		}
		for _, name := range exactLayerMetrics {
			va, vb := base.Metrics[name], r.Metrics[name]
			if r.Traced && va.Value != vb.Value {
				fmt.Printf("%-15s seed %d: %s differs: %v vs %v\n", r.Workload, r.Seed, name, va.Value, vb.Value)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions or exact-value differences", bad)
	}
	fmt.Println("digests and exact metrics equal wherever both files hold the same workload and seed")
	return nil
}

// printSpreads reports each end-to-end metric's spread over the file's
// runs: the quartile distance as a share of the median.
func printSpreads(spec *benchSpec, f *resultsFile) error {
	wide := 0
	fmt.Printf("%-15s %-12s %5s %13s %13s %13s %8s %6s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := f.values(w.Name, m.Name)
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			note := ""
			if m.Name != "setup_s" && spread(v) > m.Bound {
				note = "  wider than the bound"
				wide++
			} else if spread(v) > m.Bound/3 {
				note = "  above a third of the bound"
			}
			fmt.Printf("%-15s %-12s %5d %13.6g %13.6g %13.6g %7.2f%% %5.0f%%%s\n",
				w.Name, m.Name, len(v), median(v), q1, q3, 100*spread(v), 100*m.Bound, note)
		}
	}
	// One seed is one set of inputs: its runs must agree on the digest.
	type runKey struct {
		workload string
		seed     uint64
	}
	digests := map[runKey]string{}
	for _, r := range f.Runs {
		k := runKey{r.Workload, r.Seed}
		if first, ok := digests[k]; ok && first != r.Digest {
			fmt.Printf("%s: seed %d produced different digests: %.16s and %.16s\n", r.Workload, r.Seed, first, r.Digest)
			wide++
		}
		digests[k] = r.Digest
	}
	if wide > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound, or digests that do not repeat", wide)
	}
	return nil
}
