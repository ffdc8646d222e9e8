// Package dram implements a cycle-level main-memory model: multi-channel
// DDR4/DDR5/HBM devices with per-bank row buffers, FR-FCFS scheduling,
// write-drain watermarks, bus turnaround penalties, activation-window limits
// (tRRD/tFAW) and periodic refresh.
//
// The model is the repository's stand-in for "actual hardware": every paper
// experiment that characterizes a physical server runs the Mess benchmark
// against this model. It is deliberately a request-level (not command-level)
// model: per transaction it resolves the row-buffer outcome (hit, empty,
// miss), schedules the data burst on the channel bus respecting the JEDEC
// timing constraints that dominate bandwidth-latency behaviour, and returns
// the completion time. That is the level of detail the Mess methodology is
// sensitive to; per-command bus arbitration below that granularity changes
// nothing the benchmark can observe.
//
// Each fact a platform shares with its memory technology is stated once, in
// this package. The presets (DDR4, DDR5, HBM2, HBM2E) carry the device
// timing and the controller front end — CtrlLatency and IdleClose — so a
// platform only overrides what is its own (Zen 2's write watermarks). The
// address map is one decode (Mapper.decode) that both the controller and
// trace fingerprinting go through.
package dram

import (
	"fmt"

	"github.com/mess-sim/mess/internal/sim"
)

// Timing holds the device timing constraints, already converted to the
// picosecond time base. Fields follow JEDEC naming with the leading "t"
// dropped.
type Timing struct {
	TCK   sim.Time // clock period
	Burst sim.Time // data-bus occupancy per 64-byte transfer
	CL    sim.Time // CAS (column access) latency
	RCD   sim.Time // ACT→CAS
	RP    sim.Time // PRE→ACT
	RAS   sim.Time // ACT→PRE minimum
	WR    sim.Time // write recovery (end of write data → PRE)
	WTR   sim.Time // write→read turnaround (bus-level penalty applied here)
	RTW   sim.Time // read→write turnaround
	RTP   sim.Time // read→PRE
	CCD   sim.Time // CAS→CAS, same bank group (burst gap)
	RRD   sim.Time // ACT→ACT, same rank
	FAW   sim.Time // four-activate window, per rank
	REFI  sim.Time // refresh interval
	RFC   sim.Time // refresh cycle time (rank blocked)
}

// Config describes one memory system: device geometry, timing, and
// controller policy knobs.
type Config struct {
	Name     string
	Channels int
	Ranks    int // per channel
	Banks    int // per rank
	RowBytes int // row-buffer size per bank

	Timing Timing

	// Controller policy.
	WriteHi      int      // write-queue depth that triggers a drain
	WriteLo      int      // drain until the queue falls to this depth
	IdleClose    sim.Time // open row auto-precharges after this idle time (0 = open-page forever)
	CtrlLatency  sim.Time // fixed front-end + PHY latency added to read completions
	FRFCFSWindow int      // how deep FR-FCFS scans for a row hit
	// BypassCap bounds how many times the oldest read may be bypassed by
	// row hits before it is served unconditionally. This is the
	// anti-starvation mechanism of the scheduler; it bounds a victim's
	// queueing at ≈ BypassCap × Burst while costing at most one row-miss
	// service per BypassCap hits.
	BypassCap int
}

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: config %q: channels must be positive, got %d", c.Name, c.Channels)
	case c.Ranks <= 0:
		return fmt.Errorf("dram: config %q: ranks must be positive, got %d", c.Name, c.Ranks)
	case c.Banks <= 0:
		return fmt.Errorf("dram: config %q: banks must be positive, got %d", c.Name, c.Banks)
	case c.RowBytes <= 0 || c.RowBytes%64 != 0:
		return fmt.Errorf("dram: config %q: row bytes must be a positive multiple of 64, got %d", c.Name, c.RowBytes)
	case !pow2(c.Ranks) || !pow2(c.Banks) || !pow2(c.RowBytes/64):
		return fmt.Errorf("dram: config %q: ranks, banks and lines per row must be powers of two, got %d, %d and %d",
			c.Name, c.Ranks, c.Banks, c.RowBytes/64)
	case c.Timing.Burst <= 0:
		return fmt.Errorf("dram: config %q: burst time must be positive", c.Name)
	case c.Timing.CL <= 0 || c.Timing.RCD <= 0 || c.Timing.RP <= 0:
		return fmt.Errorf("dram: config %q: CL/RCD/RP must be positive", c.Name)
	}
	return nil
}

func pow2(v int) bool { return v&(v-1) == 0 }

func (c *Config) withDefaults() Config {
	out := *c
	if out.WriteHi == 0 {
		out.WriteHi = 24
	}
	if out.WriteLo == 0 {
		out.WriteLo = 8
	}
	if out.FRFCFSWindow == 0 {
		out.FRFCFSWindow = 64
	}
	if out.BypassCap == 0 {
		out.BypassCap = 64
	}
	return out
}

// PeakBandwidthGBs reports the theoretical channel-bus bandwidth of the whole
// system in GB/s: one 64-byte burst per Burst interval per channel.
func (c *Config) PeakBandwidthGBs() float64 {
	return float64(c.Channels) * 64 / c.Timing.Burst.Seconds() / 1e9
}

func ns(v float64) sim.Time { return sim.FromNanoseconds(v) }

// DDR4 returns a DDR4 configuration for the given transfer rate in MT/s
// (2666 or 3200 are the rates used in the paper's platforms), behind a
// controller that adds 8 ns of front end and PHY to every read and closes a
// row left idle for 250 ns.
func DDR4(mts int, channels, ranks int) Config {
	tck := 2000.0 / float64(mts) // ns; DDR: two transfers per clock
	t := Timing{
		TCK:   ns(tck),
		Burst: ns(4 * tck), // BL8 on a 64-bit bus: 8 beats = 4 clocks per 64 B
		CL:    ns(13.75),
		RCD:   ns(13.75),
		RP:    ns(13.75),
		RAS:   ns(32),
		WR:    ns(15),
		WTR:   ns(9),
		RTW:   ns(4),
		RTP:   ns(7.5),
		CCD:   ns(5 * tck),
		RRD:   ns(4.9),
		FAW:   ns(21),
		REFI:  ns(7800),
		RFC:   ns(350),
	}
	if mts <= 2666 {
		t.CL, t.RCD, t.RP = ns(14.25), ns(14.25), ns(14.25)
		t.FAW = ns(25)
	}
	return Config{
		Name:     fmt.Sprintf("DDR4-%d", mts),
		Channels: channels,
		Ranks:    ranks,
		Banks:    16,
		RowBytes: 8192,
		Timing:   t,

		CtrlLatency: ns(8),
		IdleClose:   250 * sim.Nanosecond,
	}
}

// DDR5 returns a DDR5 configuration for the given transfer rate in MT/s
// (4800 or 5600 in the paper). Each physical DIMM channel is modelled as its
// two independent 32-bit subchannels, each delivering a 64-byte line per
// BL16 burst, so pass dimms as the number of DIMM channels; the model uses
// 2×dimms independent channels. The controller is DDR4's.
func DDR5(mts int, dimms, ranks int) Config {
	tck := 2000.0 / float64(mts)
	t := Timing{
		TCK:   ns(tck),
		Burst: ns(8 * tck), // BL16 on a 32-bit subchannel: 64 B per 8 clocks
		CL:    ns(16.7),
		RCD:   ns(16.7),
		RP:    ns(16.7),
		RAS:   ns(32),
		WR:    ns(30),
		WTR:   ns(10),
		RTW:   ns(4),
		RTP:   ns(7.5),
		CCD:   ns(8 * tck),
		RRD:   ns(2.5),
		FAW:   ns(13.3),
		REFI:  ns(3900),
		RFC:   ns(295),
	}
	return Config{
		Name:     fmt.Sprintf("DDR5-%d", mts),
		Channels: 2 * dimms,
		Ranks:    ranks,
		Banks:    32,
		RowBytes: 8192,
		Timing:   t,

		CtrlLatency: ns(8),
		IdleClose:   250 * sim.Nanosecond,
	}
}

// HBM2 returns an HBM2 configuration with the given number of 128-bit
// channels (32 GB/s each; the paper's A64FX uses 32 channels across four
// stacks for 1024 GB/s), behind a controller with a 6 ns front end that
// closes a row left idle for 250 ns.
func HBM2(channels int) Config {
	t := Timing{
		TCK:   ns(1.0),
		Burst: ns(2.0), // BL4 on 128-bit: 64 B per 2 clocks
		CL:    ns(14),
		RCD:   ns(14),
		RP:    ns(14),
		RAS:   ns(33),
		WR:    ns(16),
		WTR:   ns(8),
		RTW:   ns(3),
		RTP:   ns(7.5),
		CCD:   ns(2),
		RRD:   ns(4),
		FAW:   ns(16),
		REFI:  ns(3900),
		RFC:   ns(260),
	}
	return Config{
		Name:     "HBM2",
		Channels: channels,
		Ranks:    1,
		Banks:    16,
		RowBytes: 2048,
		Timing:   t,

		CtrlLatency: ns(6),
		IdleClose:   250 * sim.Nanosecond,
	}
}

// HBM2E returns an HBM2E configuration with the given number of channels.
// The H100 platform in the paper reaches 1631 GB/s; with 32 channels this
// preset delivers 64 B per 1.256 ns per channel ≈ 1631 GB/s aggregate. The
// controller is HBM2's.
func HBM2E(channels int) Config {
	cfg := HBM2(channels)
	cfg.Name = "HBM2E"
	cfg.Timing.TCK = ns(0.628)
	cfg.Timing.Burst = ns(1.256)
	cfg.Timing.CCD = ns(1.256)
	return cfg
}
