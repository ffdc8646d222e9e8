package mess_test

// The benchmark harness: one testing.B entry per table and figure of the
// paper (deliverable d). Each bench executes the registered experiment at
// Quick scale and reports its headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates every result and its cost.
//
// Micro-benchmarks for the load-bearing hot paths (DRAM scheduling, curve
// lookup, the Mess feedback controller) follow at the end.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/mess-sim/mess"
	"github.com/mess-sim/mess/internal/perfload"
)

// runExperiment executes one registered experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) *mess.ExperimentResult {
	b.Helper()
	var res *mess.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mess.RunExperiment(context.Background(), nil, id, mess.ScaleQuick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return res
}

func parsePct(b *testing.B, cell string) float64 {
	b.Helper()
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("bad percent cell %q", cell)
	}
	return v
}

func BenchmarkFig2SkylakeCurves(b *testing.B) {
	res := runExperiment(b, "fig2")
	m := res.Families[0].Metrics()
	b.ReportMetric(m.UnloadedLatencyNs, "unloaded-ns")
	b.ReportMetric(100*m.SatHighFrac(), "sat-high-%")
}

func BenchmarkFig3PlatformCurves(b *testing.B) {
	// One representative platform per memory technology; fig3a..h run all.
	for _, id := range []string{"fig3a", "fig3e", "fig3g"} {
		id := id
		b.Run(id, func(b *testing.B) {
			res := runExperiment(b, id)
			m := res.Families[0].Metrics()
			b.ReportMetric(m.UnloadedLatencyNs, "unloaded-ns")
		})
	}
}

func BenchmarkTable1Metrics(b *testing.B) {
	res := runExperiment(b, "table1")
	b.ReportMetric(float64(len(res.Rows)), "platforms")
}

func BenchmarkFig4Gem5Models(b *testing.B) {
	res := runExperiment(b, "fig4")
	b.ReportMetric(float64(len(res.Families)), "families")
}

func BenchmarkFig5ZSimModels(b *testing.B) {
	res := runExperiment(b, "fig5")
	b.ReportMetric(float64(len(res.Families)), "families")
}

func BenchmarkFig6TraceDriven(b *testing.B) {
	res := runExperiment(b, "fig6")
	b.ReportMetric(float64(len(res.Families)), "simulators")
}

func BenchmarkFig7RowBuffer(b *testing.B) {
	res := runExperiment(b, "fig7")
	b.ReportMetric(float64(len(res.Rows)), "measurements")
}

func BenchmarkFig10ZSimMess(b *testing.B) {
	res := runExperiment(b, "fig10")
	b.ReportMetric(parsePct(b, res.Rows[0][1]), "curve-error-%")
}

func BenchmarkFig11ZSimIPCError(b *testing.B) {
	res := runExperiment(b, "fig11")
	for _, bar := range res.Bars {
		if bar.Label == "mess" {
			b.ReportMetric(bar.Value, "mess-ipc-error-%")
		}
		if bar.Label == "fixed" {
			b.ReportMetric(bar.Value, "fixed-ipc-error-%")
		}
	}
}

func BenchmarkFig12Gem5Mess(b *testing.B) {
	res := runExperiment(b, "fig12")
	b.ReportMetric(parsePct(b, res.Rows[0][1]), "curve-error-%")
}

func BenchmarkFig13Gem5IPCError(b *testing.B) {
	res := runExperiment(b, "fig13")
	for _, bar := range res.Bars {
		if bar.Label == "mess" {
			b.ReportMetric(bar.Value, "mess-ipc-error-%")
		}
	}
}

func BenchmarkFig14CXL(b *testing.B) {
	res := runExperiment(b, "fig14")
	man := res.Families[0]
	b.ReportMetric(man.Nearest(0.5).MaxBW(), "balanced-max-gbs")
	b.ReportMetric(man.Nearest(1.0).MaxBW(), "pure-read-max-gbs")
}

func BenchmarkFig15HPCGProfile(b *testing.B) {
	res := runExperiment(b, "fig15")
	for _, row := range res.Rows {
		if row[0] == "windows in saturated area" {
			b.ReportMetric(parsePct(b, row[1]), "saturated-windows-%")
		}
	}
}

func BenchmarkFig16HPCGTimeline(b *testing.B) {
	res := runExperiment(b, "fig16")
	b.ReportMetric(float64(len(res.Rows)), "timeline-windows")
}

func BenchmarkFig17CXLvsRemote(b *testing.B) {
	res := runExperiment(b, "fig17")
	b.ReportMetric(float64(len(res.Rows)), "benchmarks")
}

func BenchmarkFig18SPECSweep(b *testing.B) {
	res := runExperiment(b, "fig18")
	lo := res.Bars[0].Value
	hi := res.Bars[len(res.Bars)-1].Value
	b.ReportMetric(lo, "low-bw-delta-%")
	b.ReportMetric(hi, "high-bw-delta-%")
}

func BenchmarkModelSpeedTable(b *testing.B) {
	res := runExperiment(b, "tablespeed")
	b.ReportMetric(float64(len(res.Rows)), "models")
}

func BenchmarkOpenPitonBugDetection(b *testing.B) {
	res := runExperiment(b, "openpiton-bug")
	b.ReportMetric(float64(len(res.Rows)), "points")
}

// Micro-benchmarks of the hot paths.

func BenchmarkDRAMReferenceThroughput(b *testing.B) {
	// Events per second of the detailed DRAM model under saturation: the
	// cost driver of every reference characterization. The closed loop is
	// the shared perfload workload (pooled requests, stored callback), so
	// -benchmem asserting ~0 allocs/op here is the zero-allocation
	// request-lifecycle claim on the full cache-less access path.
	benchDRAMPattern(b, perfload.PatternReference)
}

// BenchmarkDRAMRandomThroughput is the row-miss-dominated regime: a
// mapper-defeating random walk where the FR-FCFS scan finds no hits and
// activate/refresh bookkeeping dominates — the regime a hit-friendly
// benchmark cannot regress-test.
func BenchmarkDRAMRandomThroughput(b *testing.B) {
	benchDRAMPattern(b, perfload.PatternRandom)
}

// BenchmarkDRAMMixedThroughput is the 2:1 read/write regime with
// write-drain episodes and bus turnarounds.
func BenchmarkDRAMMixedThroughput(b *testing.B) {
	benchDRAMPattern(b, perfload.PatternMixed)
}

func benchDRAMPattern(b *testing.B, pattern perfload.LoopPattern) {
	b.Helper()
	spec := mess.Skylake()
	eng := mess.NewEngine()
	model, err := mess.NewMemoryModel("reference", eng, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	perfload.NewClosedLoopPattern(eng, model, pattern).Run(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreqs/s")
}

func BenchmarkMessSimulatorThroughput(b *testing.B) {
	fam := mustQuickFamilyB(b)
	eng := mess.NewEngine()
	model := mess.NewSimulator(eng, mess.SimulatorConfig{Family: fam})
	b.ReportAllocs()
	b.ResetTimer()
	perfload.NewClosedLoopPattern(eng, model, perfload.PatternReference).Run(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreqs/s")
}

func BenchmarkCurveLookup(b *testing.B) {
	fam := mustQuickFamilyB(b)
	b.ResetTimer()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += fam.LatencyAt(0.5+float64(i%50)/100, float64(i%128))
	}
	_ = acc
}

var benchFam *mess.Family

func mustQuickFamilyB(b *testing.B) *mess.Family {
	b.Helper()
	if benchFam != nil {
		return benchFam
	}
	spec := mess.Skylake()
	spec.Cores = 8
	spec.DRAM.Channels = 3
	res, err := mess.Characterize(context.Background(), spec, mess.QuickBenchmarkOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchFam = res.Family
	return benchFam
}

// Kernel micro-benchmarks (run with -bench=Kernel). The workloads live in
// internal/perfload, shared with cmd/messperf so these benchmarks, its
// paired gate and the BENCH_sim.json trajectory measure the same thing. The
// baseline that keeps the speedup of the pooled/wheel design measurable —
// the pre-wheel kernel, one heap and one allocated record per event — is
// internal/sim's BenchmarkKernelScheduleFireHeapBaseline, on the heap
// engine its differential test holds the kernel to.

// BenchmarkKernelScheduleFire is the headline number: 8 self-perpetuating
// event chains with short DDR-like deltas, the pattern the DRAM and pacing
// models generate. One op = one schedule + one fire.
func BenchmarkKernelScheduleFire(b *testing.B) {
	eng := mess.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	perfload.ScheduleFire(eng, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkKernelWheelDense drives a crowded wheel: 512 concurrent chains.
func BenchmarkKernelWheelDense(b *testing.B) {
	eng := mess.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	perfload.WheelDense(eng, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkKernelFarHorizon forces the overflow-heap path: every deadline
// lands beyond the wheel horizon and must cascade back in.
func BenchmarkKernelFarHorizon(b *testing.B) {
	eng := mess.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	perfload.FarHorizon(eng, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkKernelCancel measures the schedule+cancel churn the DRAM decide
// path and pacing timers generate. One op = one schedule + one cancel
// (tombstoned, swept in bulk at the periodic drains).
func BenchmarkKernelCancel(b *testing.B) {
	eng := mess.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	perfload.Cancel(eng, b.N)
}

// BenchmarkKernelTimerRearm measures the re-armable pacing alarm: one op =
// one arm + one fire of a fixed-callback timer.
func BenchmarkKernelTimerRearm(b *testing.B) {
	eng := mess.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	perfload.TimerRearm(eng, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkKernelEngineReset measures the per-point engine reuse cycle of
// the benchmark harness: fill, drain, Reset.
func BenchmarkKernelEngineReset(b *testing.B) {
	eng := mess.NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			eng.Schedule(mess.SimTime(j*137%1000), nop)
		}
		eng.RunUntil(500)
		eng.Reset()
	}
}
