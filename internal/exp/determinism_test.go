package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (fig2_quick.csv, request_keys.txt) from this run")

// fig2Golden is the Quick fig2 release CSV as checked in: what holds a
// refactor to the curves of the commit before it, where the run-twice check
// of TestFig2ReleaseCSVDeterminism only holds one run to another.
const fig2Golden = "testdata/fig2_quick.csv"

// fig2QuickCSV runs the Quick fig2 experiment on a fresh (uncached,
// unshared) characterization service and renders every resulting family in
// the release CSV format.
func fig2QuickCSV(t *testing.T) []byte {
	t.Helper()
	env := NewEnv(Quick, charz.New(charz.Config{}))
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	res, err := e.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fam := range res.Families {
		if err := fam.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFig2ReleaseCSVDeterminism is the bit-exactness gate of the DRAM
// scheduler: the Quick fig2 sweep must produce byte-identical release CSVs
// across two runs, and on amd64 the checked-in golden, so `go test ./...`
// catches any scheduler change that perturbs the curves.
func TestFig2ReleaseCSVDeterminism(t *testing.T) {
	first := fig2QuickCSV(t)
	if len(first) == 0 {
		t.Fatal("fig2 produced no CSV output")
	}
	second := fig2QuickCSV(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("fig2 release CSVs differ between identical runs:\nrun1:\n%s\nrun2:\n%s", first, second)
	}

	// The golden is pinned to amd64: elsewhere Go may fuse multiply-adds
	// and move the last digit of a latency.
	if runtime.GOARCH == "amd64" {
		if *update {
			if err := os.WriteFile(fig2Golden, first, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(fig2Golden)
		if err != nil {
			t.Fatalf("%v (generate it with go test ./internal/exp -run TestFig2ReleaseCSVDeterminism -update)", err)
		}
		if !bytes.Equal(first, want) {
			t.Fatalf("fig2 release CSVs differ from %s; if the change is meant, regenerate with -update:\ngot:\n%s\nwant:\n%s", fig2Golden, first, want)
		}
	}
}

// referenceCSV characterizes the Quick-scaled Skylake reference on a fresh
// service of the given configuration and returns the CSV bytes.
func referenceCSV(t *testing.T, cfg charz.Config) []byte {
	t.Helper()
	fam, err := NewEnv(Quick, charz.New(cfg)).reference(scaleSpec(platform.Skylake(), Quick))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fam.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedCharacterizationDeterminism pins that a sweep whose points ask
// for shards — the benchmark module's point-sharded workload still sets
// bench.Options.Shards — runs on the one engine and lands on the same
// release CSV, byte for byte, as a sweep that does not ask.
func TestShardedCharacterizationDeterminism(t *testing.T) {
	base := referenceCSV(t, charz.Config{})
	if len(base) == 0 {
		t.Fatal("reference characterization produced no CSV output")
	}
	for _, shards := range []int{4, 2} {
		run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
			opt.Shards = shards
			return bench.RunContext(ctx, spec, opt)
		}
		if got := referenceCSV(t, charz.Config{Run: run}); !bytes.Equal(base, got) {
			t.Errorf("Shards=%d: release CSV differs from the run that does not set it:\nunset:\n%s\nShards=%d:\n%s",
				shards, base, shards, got)
		}
	}
}

// telemetryCSVAndSpans characterizes the Quick-scaled Skylake reference
// with telemetry fully enabled — registry, tracer and a verbose logger —
// and returns the release CSV plus the sorted names of every complete
// span the run recorded.
func telemetryCSVAndSpans(t *testing.T) ([]byte, []string, *telemetry.Set) {
	t.Helper()
	set := &telemetry.Set{
		Metrics: telemetry.NewRegistry(),
		Tracer:  telemetry.NewTracer(),
		Log:     telemetry.NewLogger(telemetry.LogConfig{Verbose: true, Output: io.Discard}),
	}
	csv := referenceCSV(t, charz.Config{Telemetry: set})
	var buf bytes.Buffer
	if err := set.Tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return csv, names, set
}

// countSpans tallies the sorted span names by prefix.
func countSpans(names []string, prefix string) int {
	n := 0
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

// TestTelemetryEnabledDeterminism is the observability contract of the
// telemetry layer: with metrics, tracing and verbose logging all enabled,
// the release CSVs must stay byte-identical to the uninstrumented run, the
// recorded span structure must be deterministic across runs, and the
// taxonomy's core span families (charz fill, bench point) must actually be
// present.
func TestTelemetryEnabledDeterminism(t *testing.T) {
	base := referenceCSV(t, charz.Config{})

	csv1, spans1, set := telemetryCSVAndSpans(t)
	if !bytes.Equal(base, csv1) {
		t.Errorf("telemetry-enabled release CSV differs from the uninstrumented run:\nbase:\n%s\ninstrumented:\n%s", base, csv1)
	}
	if got := countSpans(spans1, "characterize "); got == 0 {
		t.Error("no charz fill span recorded")
	}
	if got := countSpans(spans1, "point "); got == 0 {
		t.Error("no bench sweep-point spans recorded")
	}
	snap := set.Metrics.Snapshot()
	if snap[`mess_bench_points_total`] == 0 {
		t.Error("mess_bench_points_total stayed 0 on an instrumented sweep")
	}

	_, spans2, _ := telemetryCSVAndSpans(t)
	if !slices.Equal(spans1, spans2) {
		t.Errorf("span structure differs between identical runs:\nrun1: %v\nrun2: %v", spans1, spans2)
	}
}

// renderAll runs the experiments in order against one environment and
// returns each rendered report.
func renderAll(t *testing.T, env *Env, ids ...string) map[string][]byte {
	t.Helper()
	reports := map[string][]byte{}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		res, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatalf("rendering %s: %v", id, err)
		}
		reports[id] = buf.Bytes()
	}
	return reports
}

// sharedCurves builds an in-memory service of its own whose curve
// families come from the test binary's shared service:
// reference curves are not what its callers test, while every artifact it
// memoises, and every sweep over a model backend, is computed afresh.
func sharedCurves() *charz.Service {
	return charz.New(charz.Config{Run: func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		if opt.Backend != nil {
			return bench.RunContext(ctx, spec, opt)
		}
		art, err := testEnv.Charz.CharacterizeContext(ctx, charz.Request{Spec: spec, Options: opt, NeedSamples: true})
		if err != nil {
			return nil, err
		}
		return art.Result, nil
	}})
}

// TestFanOutAndMemoAreInvisible pins the experiment-layer execution
// contract: every experiment that fans its simulations out, or draws on a
// simulation memoised by the service, renders the same bytes on one worker
// as on four, and fig16 served from fig15's HPCG run equals fig16 on a
// service of its own. Each pass memoises on a service of its own, so it
// simulates everything afresh; reference curves come from the test
// binary's shared service.
func TestFanOutAndMemoAreInvisible(t *testing.T) {
	ids := []string{"fig6", "fig6s", "fig11", "fig13", "fig18", "table1", "fig2", "fig15", "fig16"}
	at := func(procs int, ids ...string) map[string][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return renderAll(t, NewEnv(Quick, sharedCurves()), ids...)
	}
	serial := at(1, ids...)
	parallel := at(4, ids...)
	for _, id := range ids {
		if len(serial[id]) == 0 {
			t.Errorf("%s rendered nothing", id)
		}
		if !bytes.Equal(serial[id], parallel[id]) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=4:\n--- 1 ---\n%s\n--- 4 ---\n%s", id, serial[id], parallel[id])
		}
	}
	if alone := at(4, "fig16")["fig16"]; !bytes.Equal(alone, serial["fig16"]) {
		t.Errorf("fig16 on its own service differs from fig16 after fig15:\n--- alone ---\n%s\n--- shared ---\n%s", alone, serial["fig16"])
	}
}

// TestDiskWarmRegistrySimulatesNothing runs experiments covering every
// artifact kind — STREAM and evaluation suites, trace replays and sampled
// replays, the HPCG run, the CXL-versus-remote pairs, families with
// samples — on the shared environment, whose service stores everything it
// computes, then on a fresh service over the same directory: the warm
// reports must be byte-identical and the warm pass must simulate nothing.
// Every artifact in the store must be one TestRequestKeysGolden pins.
func TestDiskWarmRegistrySimulatesNothing(t *testing.T) {
	ids := []string{"fig2", "fig6s", "fig7", "fig13", "fig15", "fig16", "fig18", "openpiton-bug"}
	cold := renderAll(t, testEnv, ids...)

	warmSvc := charz.New(charz.Config{Store: testStore, Run: func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		t.Errorf("the warm pass simulated a sweep on %s", spec.Name)
		return bench.RunContext(ctx, spec, opt)
	}})
	warm := renderAll(t, NewEnv(Quick, warmSvc), ids...)
	for _, id := range ids {
		if !bytes.Equal(cold[id], warm[id]) {
			t.Errorf("%s: the disk-warm report differs from the cold one:\n--- cold ---\n%s\n--- warm ---\n%s", id, cold[id], warm[id])
		}
	}
	if st := warmSvc.Stats(); st.Runs != 0 || st.DiskHits == 0 {
		t.Errorf("warm pass: %+v, want no runs and disk hits", st)
	}

	pinned, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatal(err)
	}
	artifacts, err := filepath.Glob(filepath.Join(testStore.Dir(), "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range artifacts {
		name := filepath.Base(path)
		if strings.HasSuffix(name, ".samples.json") {
			continue
		}
		n++
		if key := strings.TrimSuffix(name, ".json"); !bytes.Contains(pinned, []byte(key+"  ")) {
			t.Errorf("artifact %s is not pinned in %s", key, keysGolden)
		}
	}
	if n == 0 {
		t.Error("the cold pass stored no artifact")
	}
}
