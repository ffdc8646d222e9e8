// Package platform describes complete simulated systems: a memory backend,
// a cache hierarchy and a set of cores, configured to mirror the eight
// platforms of the paper's Table I plus the CPU-simulator configurations of
// Sec. IV (ZSim-like, gem5-like, OpenPiton-like).
//
// A Spec is pure data; the packages that run a platform (bench, workloads)
// instantiate it. The calibration targets are the paper's measured characteristics — unloaded
// latency, saturated-bandwidth range, maximum latency range — not the
// microarchitectural details of the real chips.
package platform

import (
	"fmt"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/sim"
)

// Spec describes a platform.
type Spec struct {
	Name    string
	Cores   int     // cores (or GPU SMs) generating traffic
	FreqGHz float64 // core frequency

	DRAM dram.Config

	// Cache-side parameters.
	Policy        cache.WritePolicy
	OnChipLatency sim.Time // round-trip on-chip component of load-to-use
	MSHRs         int      // per-core outstanding demand misses
	WriteBufs     int      // per-core posted-write buffer

	// The paper's Table I reference values: unloaded latency, saturated
	// bandwidth range in percent of theoretical, and maximum latency range.
	// The two ranges serve reports and validation only and are left out of
	// charz keys. UnloadedLatencyNs is keyed: memmodel's fixed and M/D/1
	// models read it as their base latency.
	UnloadedLatencyNs float64
	SatRangePct       [2]float64
	MaxLatencyRangeNs [2]float64
}

// CycleTime reports the core clock period.
func (s Spec) CycleTime() sim.Time {
	return sim.FromNanoseconds(1.0 / s.FreqGHz)
}

// TheoreticalBandwidthGBs reports the peak memory bandwidth.
func (s Spec) TheoreticalBandwidthGBs() float64 { return s.DRAM.PeakBandwidthGBs() }

// CacheConfig derives the hierarchy configuration from the spec.
func (s Spec) CacheConfig() cache.Config {
	return cache.Config{
		Policy:        s.Policy,
		OnChipLatency: s.OnChipLatency,
		MSHRs:         s.MSHRs,
		WriteBufs:     s.WriteBufs,
	}
}

func (s Spec) String() string {
	return fmt.Sprintf("%s: %d cores @%.1f GHz, %s ×%d (%.0f GB/s peak)",
		s.Name, s.Cores, s.FreqGHz, s.DRAM.Name, s.DRAM.Channels, s.TheoreticalBandwidthGBs())
}

func ns(v float64) sim.Time { return sim.FromNanoseconds(v) }

// The eight platforms of Table I. On-chip latencies are calibrated so the
// simulated unloaded load-to-use latency lands at the paper's measured
// value; MSHR depths are set so the platform can actually saturate its
// memory system (BW × latency / 64 B outstanding lines), as the real
// out-of-order cores and GPU SMs do.

// Skylake returns the Intel Skylake Xeon Platinum platform:
// 24 cores @ 2.1 GHz, 6×DDR4-2666, 128 GB/s, 89 ns unloaded.
func Skylake() Spec {
	return Spec{
		Name: "Intel Skylake", Cores: 24, FreqGHz: 2.1,
		DRAM:              dram.DDR4(2666, 6, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(44.5),
		MSHRs:             28,
		WriteBufs:         32,
		UnloadedLatencyNs: 89,
		SatRangePct:       [2]float64{72, 91},
		MaxLatencyRangeNs: [2]float64{242, 391},
	}
}

// CascadeLake returns the Intel Cascade Lake Xeon Gold platform:
// 16 cores @ 2.3 GHz, 6×DDR4-2666, 128 GB/s, 85 ns unloaded.
func CascadeLake() Spec {
	return Spec{
		Name: "Intel Cascade Lake", Cores: 16, FreqGHz: 2.3,
		DRAM:              dram.DDR4(2666, 6, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(40.5),
		MSHRs:             32,
		WriteBufs:         36,
		UnloadedLatencyNs: 85,
		SatRangePct:       [2]float64{68, 87},
		MaxLatencyRangeNs: [2]float64{182, 303},
	}
}

// Zen2 returns the AMD EPYC 7742 platform: 64 cores @ 2.25 GHz,
// 8×DDR4-3200, 204 GB/s, 113 ns unloaded. The small write-drain batches
// (low watermarks) reproduce Zen 2's anomalous mixed-traffic penalty
// (Sec. III): balanced read/write mixes suffer frequent bus turnarounds.
func Zen2() Spec {
	cfg := dram.DDR4(3200, 8, 1)
	cfg.WriteHi = 10
	cfg.WriteLo = 6
	return Spec{
		Name: "AMD Zen 2", Cores: 64, FreqGHz: 2.25,
		DRAM:              cfg,
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(70),
		MSHRs:             10,
		WriteBufs:         12,
		UnloadedLatencyNs: 113,
		SatRangePct:       [2]float64{57, 71},
		MaxLatencyRangeNs: [2]float64{257, 657},
	}
}

// Power9 returns the IBM Power 9 platform: 20 cores @ 2.4 GHz,
// 8×DDR4-2666, 170 GB/s, 96 ns unloaded.
func Power9() Spec {
	return Spec{
		Name: "IBM Power 9", Cores: 20, FreqGHz: 2.4,
		DRAM:              dram.DDR4(2666, 8, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(51.5),
		MSHRs:             32,
		WriteBufs:         36,
		UnloadedLatencyNs: 96,
		SatRangePct:       [2]float64{67, 91},
		MaxLatencyRangeNs: [2]float64{238, 546},
	}
}

// Graviton3 returns the Amazon Graviton 3 platform: 64 cores @ 2.6 GHz,
// 8×DDR5-4800, 307 GB/s, 129 ns unloaded. Its stores behave as
// write-through/no-allocate at the memory interface: the paper observes
// STREAM matching the Mess counters, "corresponding to a write-through
// cache policy" (Sec. III).
func Graviton3() Spec {
	return Spec{
		Name: "Amazon Graviton 3", Cores: 64, FreqGHz: 2.6,
		DRAM:              dram.DDR5(4800, 8, 2),
		Policy:            cache.WriteThrough,
		OnChipLatency:     ns(83.5),
		MSHRs:             20,
		WriteBufs:         24,
		UnloadedLatencyNs: 129,
		SatRangePct:       [2]float64{63, 95},
		MaxLatencyRangeNs: [2]float64{332, 527},
	}
}

// SapphireRapids returns the Intel Sapphire Rapids Xeon Platinum platform:
// 56 cores @ 2 GHz, 8×DDR5-4800, 307 GB/s, 109 ns unloaded.
func SapphireRapids() Spec {
	return Spec{
		Name: "Intel Sapphire Rapids", Cores: 56, FreqGHz: 2.0,
		DRAM:              dram.DDR5(4800, 8, 2),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(63.5),
		MSHRs:             16,
		WriteBufs:         20,
		UnloadedLatencyNs: 109,
		SatRangePct:       [2]float64{60, 86},
		MaxLatencyRangeNs: [2]float64{238, 406},
	}
}

// A64FX returns the Fujitsu A64FX platform: 48 cores @ 2.2 GHz,
// 4×HBM2 (32 channels), 1024 GB/s, 122 ns unloaded.
func A64FX() Spec {
	return Spec{
		Name: "Fujitsu A64FX", Cores: 48, FreqGHz: 2.2,
		DRAM:              dram.HBM2(32),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(80),
		MSHRs:             56,
		WriteBufs:         60,
		UnloadedLatencyNs: 122,
		SatRangePct:       [2]float64{72, 92},
		MaxLatencyRangeNs: [2]float64{338, 428},
	}
}

// H100 returns the NVIDIA Hopper H100 platform: 132 SMs @ 1.1 GHz,
// 4×HBM2E (32 channels), 1631 GB/s, 363 ns unloaded. SMs tolerate enormous
// memory-level parallelism; like Graviton 3, its STREAM results match the
// Mess counters, so stores are modelled without write-allocate.
func H100() Spec {
	return Spec{
		Name: "NVIDIA H100", Cores: 132, FreqGHz: 1.1,
		DRAM:   dram.HBM2E(32),
		Policy: cache.WriteThrough,
		// An SM's warps keep far more sectors in flight than a CPU
		// core's MSHRs; 80 outstanding lines per SM covers the platform's
		// bandwidth-delay product (1631 GB/s × 363 ns ≈ 580 KB).
		OnChipLatency:     ns(321),
		MSHRs:             80,
		WriteBufs:         84,
		UnloadedLatencyNs: 363,
		SatRangePct:       [2]float64{51, 95},
		MaxLatencyRangeNs: [2]float64{699, 1433},
	}
}

// All returns the eight Table I platforms in the paper's column order.
func All() []Spec {
	return []Spec{
		Skylake(), CascadeLake(), Zen2(), Power9(),
		Graviton3(), SapphireRapids(), A64FX(), H100(),
	}
}

// ByName returns the platform spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("platform: unknown platform %q", name)
}

// Simulator-configuration variants of Sec. IV. The paper's simulators model
// specific machines; the distinguishing CPU-side property that matters for
// memory characterization is the outstanding-miss budget and the on-chip
// latency the simulator exhibits.

// ZSimSkylake returns the CPU-side configuration of the public ZSim
// Skylake model (24 cores, 6×DDR4-2666).
func ZSimSkylake() Spec {
	s := Skylake()
	s.Name = "ZSim Skylake model"
	return s
}

// Gem5Graviton3 returns the CPU-side configuration of the gem5 Graviton 3
// model (64 Neoverse-N1-like cores, 8×DDR5-4800).
func Gem5Graviton3() Spec {
	s := Graviton3()
	s.Name = "gem5 Graviton 3 model"
	return s
}

// OpenPitonAriane returns the 64-core Ariane RISC-V configuration of the
// OpenPiton Metro-MPI experiments: small in-order cores with 2-entry MSHRs,
// which cannot saturate a high-end memory system (Sec. IV-C).
func OpenPitonAriane() Spec {
	return Spec{
		Name: "OpenPiton Ariane", Cores: 64, FreqGHz: 1.0,
		DRAM:              dram.DDR4(2666, 1, 1),
		Policy:            cache.WriteAllocate,
		OnChipLatency:     ns(60),
		MSHRs:             2,
		WriteBufs:         4,
		UnloadedLatencyNs: 100,
	}
}
