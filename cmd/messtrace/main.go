// Command messtrace captures memory traces from a Mess benchmark run and
// replays them through standalone memory models — the paper's trace-driven
// methodology (Sec. IV-D) as a tool.
//
// Replay runs either in full (every record simulated) or sampled: the
// trace is cut into fixed-span windows, each window fingerprinted with an
// access vector, the vectors clustered, and only one representative window
// (plus probes) per behaviour cluster is simulated; full-trace bandwidth
// and latency are reconstructed as cluster-weighted sums with error bars.
// Sampled replay is deterministic — same trace and settings, same result.
//
// Sampling needs a trace long enough to hold many µs-span windows —
// capture with a few hundred µs of measured time (-measure-us) when the
// trace is destined for -sampled replay.
//
// A trace file is text: a "# mess trace: N records" header, then one
// "at_ps 0xaddr R|W" line per record. -replay streams the file and sizes
// the record array once from the header's count — capped by what the
// file's size could hold, so a wrong or hostile header costs nothing —
// instead of growing it by doubling; a file without the header still
// loads. Malformed lines, timestamps that go backwards and lines of 1 MiB
// or more are rejected with their line number.
//
// Usage:
//
//	messtrace -platform "Intel Skylake" -capture trace.txt -stores 40 -pace 8
//	messtrace -platform "Intel Skylake" -capture trace.txt -measure-us 400 -limit 0
//	messtrace -replay trace.txt -model dramsim3 -platform "Intel Skylake"
//	messtrace -replay trace.txt -model dramsim3 -sampled -compare-full
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
)

func main() {
	var (
		name    = flag.String("platform", "Intel Skylake", "platform whose configuration to use")
		capture = flag.String("capture", "", "capture a trace from a benchmark point into this file")
		stores  = flag.Int("stores", 0, "capture: kernel store percentage")
		pace    = flag.Float64("pace", 8, "capture: generator pacing in ns/op")
		replay  = flag.String("replay", "", "replay this trace file")
		model   = flag.String("model", "dramsim3", "replay: memory model kind")
		limit   = flag.Int("limit", 200000, "capture: maximum records")
		measUs  = flag.Int("measure-us", 15, "capture: measured window in µs (captures destined for -sampled replay want hundreds: sampling needs many µs-span windows)")

		sampled = flag.Bool("sampled", false, "replay: sample one window per behaviour cluster instead of every record")
		compare = flag.Bool("compare-full", false, "sampled: also run the full replay and report the divergence")
		timeout = flag.Duration("timeout", 0, cli.TimeoutUsage)
	)
	flag.Parse()

	spec := cli.MustPlatform(*name)

	ctx, stop := cli.Context(*timeout)
	defer stop()

	switch {
	case *capture != "":
		doCapture(ctx, spec, *capture, *stores, *pace, *limit, *measUs)
	case *replay != "":
		// A misspelt kind ends the run here, before the trace is read.
		mk, err := memmodel.Factory(memmodel.Kind(*model), spec, nil)
		if err != nil {
			cli.Fatal(err)
		}
		doReplay(spec, *replay, *model, mk, *sampled, *compare)
	default:
		fmt.Println("use -capture <file> or -replay <file>; see -h")
	}
}

func doCapture(ctx context.Context, spec platform.Spec, path string, stores int, pace float64, limit, measUs int) {
	switch {
	case stores < 0 || stores > 100:
		cli.Fatalf("-stores %d: the store percentage must lie in [0, 100]", stores)
	case !(pace >= 0) || math.IsInf(pace, 1):
		cli.Fatalf("-pace %v: the pacing must be a finite number of ns/op, 0 or more", pace)
	case limit < 0:
		cli.Fatalf("-limit %d: the record limit must be positive, or 0 for none", limit)
	case measUs <= 0:
		cli.Fatalf("-measure-us %d: the measured window must be at least 1 µs", measUs)
	}
	opt := exp.Sweep(exp.Quick)
	opt.Measure = sim.Time(measUs) * sim.Microsecond
	tr, s, err := trace.CapturePoint(ctx, spec, opt, bench.Mix{StorePercent: stores}, pace, limit)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("captured %d records at %.1f GB/s (read ratio %.2f, latency %.0f ns)\n",
		tr.Len(), s.BWGBs, s.RdRatio, s.LatNs)

	if err := cli.WriteFile(path, tr.Save); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("trace written to %s\n", path)
}

func doReplay(spec platform.Spec, path, kind string, mk mem.BackendFactory, sampled, compare bool) {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		cli.Fatal(err)
	}

	if !sampled {
		eng := sim.New()
		res := trace.Replay(eng, mk(eng), tr)
		fmt.Printf("replayed %d records through %s:\n", len(tr.Records), kind)
		fmt.Printf("  bandwidth:        %.1f GB/s\n", res.BWGBs)
		fmt.Printf("  mean read latency: %.1f ns (controller level)\n", res.ReadLatNs)
		fmt.Printf("  read ratio:       %.2f\n", res.ReadRatio)
		return
	}

	mapper := dram.NewMapper(&spec.DRAM)
	sam, err := trace.Sampled(mk, tr, trace.SampleConfig{BankRow: mapper.BankRow})
	if err != nil {
		cli.Fatal(err)
	}
	// Every cluster replays its representative window and, when it has
	// another member, a probe.
	simulated := 0
	for i := range sam.Clusters {
		simulated += min(sam.Clusters[i].Windows, 2)
	}
	fmt.Printf("sampled replay of %d records through %s (%d of %d windows simulated, %.1f× record reduction):\n",
		sam.TotalRecords, kind, simulated, len(sam.Windows), sam.SpeedupX)
	fmt.Printf("  bandwidth:        %.1f ± %.1f GB/s\n", sam.Estimate.BWGBs, sam.BWErrGBs)
	fmt.Printf("  mean read latency: %.1f ± %.1f ns (controller level)\n", sam.Estimate.ReadLatNs, sam.LatErrNs)
	fmt.Printf("  read ratio:       %.2f\n", sam.Estimate.ReadRatio)
	for i := range sam.Clusters {
		c := &sam.Clusters[i]
		fmt.Printf("  cluster %d: %d windows (%.0f%% of time), %.1f GB/s, %.1f ns, stretch %.3f\n",
			i, c.Windows, 100*c.Weight, c.BWGBs, c.ReadLatNs, c.Stretch)
	}
	if compare {
		eng := sim.New()
		full := trace.Replay(eng, mk(eng), tr)
		fmt.Printf("full replay: %.1f GB/s, %.1f ns → divergence %.2f%%\n",
			full.BWGBs, full.ReadLatNs, sam.DivergencePct(full))
	}
}
