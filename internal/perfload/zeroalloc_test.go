package perfload_test

import (
	"testing"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/messsim"
	"github.com/mess-sim/mess/internal/perfload"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// allocTolerance is the per-op bound the steady-state tests assert. The
// request lifecycle itself is exactly allocation-free; the bound leaves room
// for the engine's event pool or active run growing the first time a burst
// runs deeper than warmup did. The pre-pool lifecycle allocated ≥2/op —
// three orders of magnitude above this bound — so the gate cannot miss a
// regression to per-request allocation.
const allocTolerance = 0.015

// steadyStateAllocsPerOp measures allocations per completed request on the
// canonical closed-loop workload — the same ClosedLoopDriver the root
// benchmarks and cmd/messperf run — reusing one engine, pool and stored
// callback across runs. This is the -benchmem claim as a hard test: after
// warmup the request lifecycle (Get → Access → scheduled completion →
// release) must not allocate.
func steadyStateAllocsPerOp(t *testing.T, eng *sim.Engine, backend mem.Backend, pattern perfload.LoopPattern, opsPerRun int) float64 {
	t.Helper()
	d := perfload.NewClosedLoopPattern(eng, backend, pattern)
	for i := 0; i < 4; i++ {
		d.Run(opsPerRun) // warm: pool records, engine event pool, controller queues
	}
	if live := d.Pool().Live(); live != 0 {
		t.Fatalf("drained driver still holds %d live requests", live)
	}
	allocs := testing.AllocsPerRun(5, func() { d.Run(opsPerRun) })
	return allocs / float64(opsPerRun)
}

// Every DRAM traffic regime the trajectory tracks must hold the
// zero-allocation claim: the random pattern stresses the activate/rescan
// path, the mixed pattern the write queue and its ring.
func TestDRAMSteadyStateZeroAllocs(t *testing.T) {
	for _, pattern := range []perfload.LoopPattern{perfload.PatternReference, perfload.PatternRandom, perfload.PatternMixed} {
		t.Run(pattern.String(), func(t *testing.T) {
			eng := sim.New()
			sys := dram.New(eng, dram.DDR4(2666, 2, 2))
			if per := steadyStateAllocsPerOp(t, eng, sys, pattern, 4000); per >= allocTolerance {
				t.Fatalf("DRAM %s steady state allocates %.4f/op, want ~0", pattern, per)
			}
		})
	}
}

func TestMessSimulatorSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.New()
	s := messsim.New(eng, messsim.Config{Family: core.NewSynthetic(core.SyntheticSpec{})})
	if per := steadyStateAllocsPerOp(t, eng, s, perfload.PatternReference, 4000); per >= allocTolerance {
		t.Fatalf("Mess simulator steady state allocates %.4f/op, want ~0", per)
	}
}

// instrumentedBackend forwards every access to the inner model while
// updating a telemetry counter and histogram per request — denser
// instrumentation than any production path (which meters per point, not
// per access), so it bounds what wiring the registry into a hot loop can
// ever cost.
type instrumentedBackend struct {
	inner mem.Backend
	reqs  *telemetry.Counter
	sizes *telemetry.Histogram
}

func (b *instrumentedBackend) Access(req *mem.Request) {
	b.reqs.Inc()
	b.sizes.Observe(float64(req.Size))
	b.inner.Access(req)
}

// The telemetry contract of ISSUE 10: an instrumented model hot loop keeps
// the zero-allocation steady state. Counter.Inc and Histogram.Observe are
// atomic updates on pre-registered series — registration happens once,
// outside the loop — so the per-op cost is branches and atomics, never an
// allocation.
func TestInstrumentedDRAMSteadyStateZeroAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := sim.New()
	sys := &instrumentedBackend{
		inner: dram.New(eng, dram.DDR4(2666, 2, 2)),
		reqs:  reg.Counter("mess_test_requests_total"),
		sizes: reg.Histogram("mess_test_request_bytes"),
	}
	if per := steadyStateAllocsPerOp(t, eng, sys, perfload.PatternMixed, 4000); per >= allocTolerance {
		t.Fatalf("instrumented DRAM steady state allocates %.4f/op, want ~0", per)
	}
	if sys.reqs.Value() == 0 {
		t.Fatal("instrumentation never fired: counter stayed 0")
	}
}

// A running kernel core is an issuer on the hot path like the closed-loop
// driver: once warm, stepping a kernel — STREAM triad queues three
// operations per line-step and consumes them one by one — through the cache
// hierarchy onto a fixed-latency backend must not allocate.
func TestKernelCoreSteadyStateZeroAllocs(t *testing.T) {
	for _, k := range []cpu.Kernel{cpu.StreamTriad, cpu.LMbench} {
		t.Run(k.Name, func(t *testing.T) {
			eng := sim.New()
			hier := cache.New(eng, cache.Config{MSHRs: 10, WriteBufs: 12, OnChipLatency: 40 * sim.Nanosecond},
				memmodel.NewFixed(eng, 80*sim.Nanosecond))
			core := cpu.NewKernelCore(eng, hier.Port(0), k, cpu.CoreConfig{
				CycleTime:  sim.FromNanoseconds(0.5),
				ArrayBases: []uint64{1 << 33, 2 << 33, 3 << 33},
				ArrayBytes: 32 << 20,
			})
			core.Start()
			defer core.Stop()
			now := 2 * sim.Millisecond
			// Warm the event and request pools and the engine's active run.
			eng.RunUntil(now)
			before := core.Steps()
			allocs := testing.AllocsPerRun(5, func() {
				now += 20 * sim.Microsecond
				eng.RunUntil(now)
			})
			if core.Steps() == before {
				t.Fatal("the core made no progress in the measured window")
			}
			if allocs != 0 {
				t.Fatalf("a running %s core allocates %.1f times per 20 µs window, want 0", k.Name, allocs)
			}
		})
	}
}
