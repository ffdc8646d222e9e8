package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke builds the benchmark and runs -smoke (one tiny iteration of
// every workload, both passes) from the repository root, then checks the
// results file against BENCHMARK.json: every declared metric is emitted
// with its declared unit, by every workload, and no other name appears.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	results := filepath.Join(tmp, "results.json")
	cmd := exec.Command(bin, "-smoke", "-seed", "7", "-out", results, "-dir", filepath.Join(tmp, "out"))
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchmark -smoke: %v\n%s", err, out)
	}

	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("smoke run reported %d of %d outputs wrong", last.Failed, last.Attempted)
	}

	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	var file resultsFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.GOMAXPROCS != gomaxprocs || file.Env.GoVersion == "" || file.Env.NProc < 1 {
		t.Errorf("environment not recorded: %+v", file.Env)
	}
	if want := 2 * len(spec.Workloads); len(file.Runs) != want {
		t.Fatalf("got %d run records, want %d (every workload, untraced and traced)", len(file.Runs), want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, run := range file.Runs {
		seen[run.Workload] = true
		declared := spec.EndToEnd
		if run.Traced {
			declared = spec.PerLayer
		}
		if len(run.Metrics) != len(declared) {
			t.Errorf("%s (traced=%v): %d metrics emitted, %d declared", run.Workload, run.Traced, len(run.Metrics), len(declared))
		}
		for _, d := range declared {
			v, ok := run.Metrics[d.Name]
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
			case !ok:
				t.Errorf("%s: declared metric %q not emitted", run.Workload, d.Name)
			case v.Unit != d.Unit:
				t.Errorf("%s: metric %q emitted in %q, declared in %q", run.Workload, d.Name, v.Unit, d.Unit)
			case !run.Traced && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %q is %v; it must never be 0", run.Workload, d.Name, v.Value)
			}
		}
		if run.Failed != 0 || run.Attempted < 1 || run.Digest == "" {
			t.Errorf("%s: %d of %d outputs wrong, digest %q: %v", run.Workload, run.Failed, run.Attempted, run.Digest, run.Notes)
		}
	}
	for _, w := range spec.Workloads {
		if !seen[w.Name] {
			t.Errorf("workload %q declared in BENCHMARK.json never ran", w.Name)
		}
	}
	if len(allWorkloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(allWorkloads), len(spec.Workloads))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTimesUseTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "iteration", layer: layerHarness, start: 0, end: 100, parent: -1},
		{name: "a", layer: "charz", start: 10, end: 60, parent: 0},
		{name: "b", layer: "charz", start: 40, end: 90, parent: 0}, // overlaps a: two clients
		{name: "sweep", layer: "bench", start: 20, end: 50, parent: 1},
	}
	byLayer, covered, total := selfTimes(spans)
	if byLayer[layerHarness] != 20 || byLayer["charz"] != 70 || byLayer["bench"] != 30 {
		t.Errorf("self times = %v", byLayer)
	}
	if covered != 80 || total != 100 {
		t.Errorf("covered %d of %d, want 80 of 100", covered, total)
	}
}
