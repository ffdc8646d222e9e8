package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/results.txt from this run")

// resultsGolden holds the core-driven results in full precision: what pins
// the KernelCore path (STREAM, the IPC suites, the HPCG proxy) to the commit
// before a refactor, where the tools' goldens print rounded values.
const resultsGolden = "testdata/results.txt"

// TestResultsGolden runs StreamSuite and EvalSuite on Skylake and a 700 µs
// HPCG proxy on an 8-core, 3-channel Cascade Lake, and holds every result,
// counter and phase span, printed with %v, to the checked-in golden.
func TestResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	skylake := platform.Skylake()
	for _, suite := range []struct {
		name string
		run  func(platform.Spec, Options) ([]Result, error)
	}{{"StreamSuite", StreamSuite}, {"EvalSuite", EvalSuite}} {
		results, err := suite.run(skylake, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "# %s %s\n", suite.name, skylake.Name)
		for _, r := range results {
			fmt.Fprintf(&buf, "%+v\n", r)
		}
	}

	spec := platform.CascadeLake()
	spec.Cores, spec.DRAM.Channels = 8, 3
	app := NewPhasedApp(spec, HPCGPhases(), nil)
	app.Run(700 * sim.Microsecond)
	fmt.Fprintf(&buf, "# HPCG %s, %d cores, %d channels, 700us\n", spec.Name, spec.Cores, spec.DRAM.Channels)
	fmt.Fprintf(&buf, "%+v\n", app.Counting.Snapshot())
	for _, e := range app.Events() {
		fmt.Fprintf(&buf, "%+v\n", e)
	}
	got := buf.Bytes()

	// Pinned to amd64 like the fig2 golden: elsewhere Go may fuse
	// multiply-adds and move the last digit of an IPC.
	if runtime.GOARCH != "amd64" {
		t.Skip("results golden is pinned to amd64")
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./internal/workloads -run TestResultsGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results differ from %s; if the change is meant, regenerate with -update:\ngot:\n%s\nwant:\n%s", resultsGolden, got, want)
	}
}
