package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
)

// testEnv is shared by every test in the binary, so reference families
// measured once (Skylake, ZSim Skylake, …) and every artifact serve all
// experiments — the same sharing messexp -run all gets from one service.
// Its service persists to testStore, a directory of the binary's own, as
// messexp's does under -cache-dir.
var (
	testEnv   *Env
	testStore *charz.DiskStore
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "exp-store-")
	if err == nil {
		testStore, err = charz.NewDiskStore(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testEnv = NewEnv(Quick, charz.New(charz.Config{Store: testStore}))
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(testEnv)
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("%s render failed: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h",
		"table1", "fig4", "fig5", "fig6", "fig6s", "fig7", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "tablespeed", "openpiton-bug",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want ≥ %d", len(All()), len(want))
	}
}

// TestSharedServiceDedupes drives two experiments that both need the
// scaled-Skylake reference curves through one Env with a counting runner
// and asserts the underlying benchmark executed once per unique key — the
// messexp -run all guarantee, in miniature.
func TestSharedServiceDedupes(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	keys := map[string]int{}
	run := func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		calls.Add(1)
		mu.Lock()
		keys[charz.Fingerprint(charz.Request{Spec: spec, Options: opt}).String()]++
		mu.Unlock()
		return bench.RunContext(ctx, spec, opt)
	}
	env := NewEnv(Quick, charz.New(charz.Config{Run: run}))

	for _, id := range []string{"fig2", "fig3a", "fig2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		if _, err := e.Run(env); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// fig2 and fig3a both characterize the scaled Skylake: one run total.
	if got := calls.Load(); got != 1 {
		t.Errorf("benchmark ran %d times across fig2+fig3a+fig2, want 1", got)
	}
	for k, n := range keys {
		if n > 1 {
			t.Errorf("key %s simulated %d times, want at most once", k[:12], n)
		}
	}
	stats := env.Charz.Stats()
	if stats.MemoryHits < 2 {
		t.Errorf("stats = %+v, want ≥2 memory hits", stats)
	}
}

func TestFig2SkylakeCharacterization(t *testing.T) {
	res := runExp(t, "fig2")
	if len(res.Families) != 1 {
		t.Fatalf("fig2 families = %d, want 1", len(res.Families))
	}
	fam := res.Families[0]
	m := fam.Metrics()
	// Unloaded latency must match the calibration target within 10%.
	if m.UnloadedLatencyNs < 80 || m.UnloadedLatencyNs > 98 {
		t.Errorf("Skylake unloaded latency = %.1f ns, want ≈89", m.UnloadedLatencyNs)
	}
	// Saturated range must sit in the right band of theoretical bandwidth.
	if m.SatHighFrac() < 0.80 || m.SatHighFrac() > 1.0 {
		t.Errorf("saturated high fraction = %.2f, want ≈0.91", m.SatHighFrac())
	}
	if m.SatLowFrac() > m.SatHighFrac() {
		t.Errorf("saturated range inverted: %v", m)
	}
	// Latency must at least double at saturation.
	if m.MaxLatencyMaxNs < 2*m.UnloadedLatencyNs {
		t.Errorf("max latency %.0f ns does not reach 2× unloaded %.0f ns", m.MaxLatencyMaxNs, m.UnloadedLatencyNs)
	}
}

func TestFig5ModelPathologies(t *testing.T) {
	res := runExp(t, "fig5")
	if len(res.Families) != 6 {
		t.Fatalf("fig5 families = %d, want actual + 5 models", len(res.Families))
	}
	byLabel := map[string]float64{} // label → max BW
	unloaded := map[string]float64{}
	for _, f := range res.Families {
		m := f.Metrics()
		byLabel[f.Label] = m.SatBWHighGBs
		unloaded[f.Label] = m.UnloadedLatencyNs
	}
	actual := res.Families[0]
	theor := actual.TheoreticalBW
	actualMax := actual.Metrics().SatBWHighGBs

	find := func(substr string) string {
		for label := range byLabel {
			if strings.Contains(label, substr) {
				return label
			}
		}
		t.Fatalf("no family labelled %q", substr)
		return ""
	}
	// Fixed-latency and Ramulator exceed the theoretical bandwidth.
	if got := byLabel[find("fixed")]; got < theor*1.05 {
		t.Errorf("fixed-latency max BW %.0f does not exceed theoretical %.0f", got, theor)
	}
	if got := byLabel[find("ramulator")]; got < theor*1.05 {
		t.Errorf("Ramulator max BW %.0f does not exceed theoretical %.0f", got, theor)
	}
	// Ramulator's latency is flat and unrealistically low (≈25 ns + on-chip).
	if got := unloaded[find("ramulator")]; got > unloaded[actual.Label]*0.95 {
		t.Errorf("Ramulator unloaded %.0f ns not below actual %.0f ns", got, unloaded[actual.Label])
	}
	// The internal DDR model under-estimates the saturated bandwidth.
	if got := byLabel[find("internal-ddr")]; got > actualMax*0.95 {
		t.Errorf("internal DDR max BW %.0f not below actual %.0f", got, actualMax)
	}
}

// TestFig6ReadRatiosAreRatios holds every trace-driven curve's read ratio
// to [0,1]: it is the mean over the points replayed, and dividing by the
// count SanitizePoints left instead pushed it past 1 whenever a point was
// pruned.
func TestFig6ReadRatiosAreRatios(t *testing.T) {
	res := runExp(t, "fig6")
	if len(res.Families) == 0 {
		t.Fatal("fig6 produced no families")
	}
	for _, fam := range res.Families {
		for _, c := range fam.Curves {
			if c.ReadRatio < 0 || c.ReadRatio > 1 {
				t.Errorf("%s: a curve of %d points has read ratio %v", fam.Label, len(c.Points), c.ReadRatio)
			}
		}
	}
}

// TestFig6sSampledReplayBounds pins the sampled-replay experiment's
// acceptance bound: every sweep point's sampled estimate stays within 5%
// of its full replay, and the sampling actually saves work.
func TestFig6sSampledReplayBounds(t *testing.T) {
	res := runExp(t, "fig6s")
	if len(res.Rows) == 0 {
		t.Fatal("fig6s produced no sweep points")
	}
	for _, row := range res.Rows {
		div, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "%"), 64)
		if err != nil {
			t.Fatalf("bad divergence cell %q", row[6])
		}
		if div > 5 {
			t.Errorf("pace %s ns: sampled estimate diverges %.1f%% (> 5%%) from full replay", row[0], div)
		}
		speed, err := strconv.ParseFloat(strings.TrimSuffix(row[7], "×"), 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[7])
		}
		if speed < 2 {
			t.Errorf("pace %s ns: sampled replay speedup %.1f× — sampling not saving work", row[0], speed)
		}
	}
}

func TestFig7RowBufferDivergence(t *testing.T) {
	res := runExp(t, "fig7")
	// Parse hit ratios: actual must span a wide range across load; the
	// DRAMsim3 replica must stay pinned high for most points.
	parse := func(s string) float64 {
		v, err := strconv.Atoi(strings.TrimSuffix(s, "%"))
		if err != nil {
			t.Fatalf("bad percent cell %q", s)
		}
		return float64(v) / 100
	}
	var actualHits, ds3Hits []float64
	for _, row := range res.Rows {
		switch {
		case strings.HasPrefix(row[0], "actual"):
			actualHits = append(actualHits, parse(row[3]))
		case strings.HasPrefix(row[0], "DRAMsim3"):
			ds3Hits = append(ds3Hits, parse(row[3]))
		}
	}
	if len(actualHits) == 0 || len(ds3Hits) == 0 {
		t.Fatal("fig7 missing rows")
	}
	spread := func(xs []float64) float64 {
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return max - min
	}
	if spread(actualHits) < 0.2 {
		t.Errorf("actual hit-rate spread %.2f too small — load sensitivity missing", spread(actualHits))
	}
	high := 0
	for _, h := range ds3Hits {
		if h > 0.8 {
			high++
		}
	}
	if high*2 < len(ds3Hits) {
		t.Errorf("DRAMsim3 replica hit rates not pinned high: %v", ds3Hits)
	}
}

func TestFig10MessMatchesReference(t *testing.T) {
	res := runExp(t, "fig10")
	if len(res.Rows) == 0 {
		t.Fatal("fig10 produced no agreement rows")
	}
	// Mean relative latency error of ZSim+Mess vs reference ≤ 15%.
	cell := res.Rows[0][1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad agreement cell %q", cell)
	}
	if v > 15 {
		t.Errorf("ZSim+Mess curve disagreement = %.1f%%, want ≤ 15%%", v)
	}
}

func TestFig11ErrorOrdering(t *testing.T) {
	res := runExp(t, "fig11")
	avg := map[string]float64{}
	for _, b := range res.Bars {
		avg[b.Label] = b.Value
	}
	mess, fixed := avg["mess"], avg["fixed"]
	if mess == 0 && fixed == 0 {
		t.Fatalf("fig11 averages missing: %v", avg)
	}
	// The defining result: Mess has the lowest average IPC error.
	for label, v := range avg {
		if label == "mess" {
			continue
		}
		if mess > v {
			t.Errorf("mess avg error %.1f%% not below %s %.1f%%", mess, label, v)
		}
	}
	if mess > 12 {
		t.Errorf("mess avg IPC error %.1f%% too high (paper: 1.3%%)", mess)
	}
	if fixed < 2*mess {
		t.Errorf("fixed-latency error %.1f%% not clearly above mess %.1f%%", fixed, mess)
	}
}

func TestFig13Gem5Ordering(t *testing.T) {
	res := runExp(t, "fig13")
	avg := map[string]float64{}
	for _, b := range res.Bars {
		avg[b.Label] = b.Value
	}
	if avg["mess"] > avg["ramulator2"] {
		t.Errorf("mess error %.1f%% above ramulator2 %.1f%% — ordering broken", avg["mess"], avg["ramulator2"])
	}
	if avg["mess"] > avg["fixed"] {
		t.Errorf("mess error %.1f%% above fixed %.1f%%", avg["mess"], avg["fixed"])
	}
}

func TestFig14CXLShape(t *testing.T) {
	res := runExp(t, "fig14")
	manufacturer := res.Families[0]
	// The CXL signature: balanced mixes outperform single-direction
	// traffic (inverse of DDR).
	balanced := manufacturer.Nearest(0.5)
	pureRead := manufacturer.Nearest(1.0)
	if balanced.MaxBW() <= pureRead.MaxBW() {
		t.Errorf("CXL balanced max BW %.1f not above pure-read %.1f — full-duplex behaviour missing",
			balanced.MaxBW(), pureRead.MaxBW())
	}
	// OpenPiton host cannot reach the device's max latency range.
	var opMax, manMax float64
	manMax = manufacturer.Metrics().MaxLatencyMaxNs
	for _, f := range res.Families[1:] {
		if strings.Contains(f.Label, "OpenPiton") {
			opMax = f.Metrics().MaxLatencyMaxNs
		}
	}
	if opMax == 0 {
		t.Fatal("OpenPiton family missing")
	}
	if opMax > manMax {
		t.Errorf("OpenPiton max latency %.0f exceeds manufacturer %.0f — 2-entry MSHRs should not saturate the device", opMax, manMax)
	}
}

func TestFig15HPCGSaturation(t *testing.T) {
	res := runExp(t, "fig15")
	var satFrac float64
	for _, row := range res.Rows {
		if row[0] == "windows in saturated area" {
			v, err := strconv.Atoi(strings.TrimSuffix(row[1], "%"))
			if err != nil {
				t.Fatalf("bad cell %q", row[1])
			}
			satFrac = float64(v) / 100
		}
	}
	if satFrac < 0.4 {
		t.Errorf("HPCG saturated fraction = %.2f, want the majority of windows (paper: most of the execution)", satFrac)
	}
}

func TestFig16TimelineStructure(t *testing.T) {
	res := runExp(t, "fig16")
	if len(res.Rows) < 5 {
		t.Fatalf("fig16 timeline has %d windows", len(res.Rows))
	}
	// MPI windows must show lower stress than the SpMV/SymGS compute
	// windows around them.
	var mpiStress, computeStress []float64
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad stress cell %q", row[4])
		}
		if strings.Contains(row[1], "MPI") {
			mpiStress = append(mpiStress, v)
		} else if strings.Contains(row[1], "SpMV") || strings.Contains(row[1], "SymGS") {
			computeStress = append(computeStress, v)
		}
	}
	if len(computeStress) == 0 {
		t.Fatal("no compute windows in timeline")
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if len(mpiStress) > 0 && mean(mpiStress) >= mean(computeStress) {
		t.Errorf("MPI stress %.2f not below compute stress %.2f", mean(mpiStress), mean(computeStress))
	}
}

func TestFig18CrossoverShape(t *testing.T) {
	res := runExp(t, "fig18")
	if len(res.Bars) < 6 {
		t.Fatalf("fig18 has %d benchmarks", len(res.Bars))
	}
	// Bars are sorted by bandwidth utilization: the mean delta of the
	// low-utilization third must be below the mean delta of the
	// high-utilization third, and the extremes must have opposite signs.
	n := len(res.Bars)
	third := n / 3
	var lowSum, highSum float64
	for i := 0; i < third; i++ {
		lowSum += res.Bars[i].Value
	}
	for i := n - third; i < n; i++ {
		highSum += res.Bars[i].Value
	}
	lowMean, highMean := lowSum/float64(third), highSum/float64(third)
	if lowMean >= highMean {
		t.Errorf("remote-vs-CXL delta: low-BW mean %+.1f%% not below high-BW mean %+.1f%%", lowMean, highMean)
	}
	if lowMean > 0 {
		t.Errorf("low-bandwidth benchmarks should lose on remote socket, got %+.1f%%", lowMean)
	}
	if highMean < 0 {
		t.Errorf("high-bandwidth benchmarks should win on remote socket, got %+.1f%%", highMean)
	}
}

func TestOpenPitonBugExperiment(t *testing.T) {
	res := runExp(t, "openpiton-bug")
	last := res.Rows[len(res.Rows)-1]
	if last[0] != "flagged points" {
		t.Fatalf("missing flagged-points summary row")
	}
	parts := strings.Split(last[1], "/")
	flagged, _ := strconv.Atoi(parts[0])
	if flagged == 0 {
		t.Error("bug detection flagged no measurement points")
	}
}
