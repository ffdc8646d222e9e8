package memmodel

import (
	"math"

	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// bwTracker estimates the recent injected bandwidth with a windowed
// accumulator, used by the behavioural replicas whose latency depends on
// load.
type bwTracker struct {
	window   sim.Time
	winStart sim.Time
	winBytes uint64
	rdBytes  uint64
	lastBW   float64
	lastRd   float64
}

func newBWTracker(window sim.Time) *bwTracker {
	return &bwTracker{window: window, lastRd: 1}
}

// observe counts one line-sized transaction at now.
func (t *bwTracker) observe(now sim.Time, op mem.Op) {
	t.winBytes += mem.LineSize
	if op == mem.Read {
		t.rdBytes += mem.LineSize
	}
	if now-t.winStart >= t.window {
		dur := now - t.winStart
		t.lastBW = float64(t.winBytes) / dur.Seconds() / 1e9
		if t.winBytes > 0 {
			t.lastRd = float64(t.rdBytes) / float64(t.winBytes)
		}
		t.winStart = now
		t.winBytes = 0
		t.rdBytes = 0
	}
}

// xorshift is the replicas' seeded dice: each roll is the next state of a
// 64-bit xorshift generator, reduced to [0, 1) in thousandths.
type xorshift uint64

func (x *xorshift) next() float64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return float64(*x%1000) / 1000
}

// midness is 1 for balanced-intermediate read ratios (≈0.75 with regular
// stores) and 0 for dominantly-read or dominantly-write traffic. The paper
// observes both DRAMsim3 and Ramulator giving their *highest* hit rates to
// dominant-direction traffic and their lowest to intermediate mixes
// (Sec. IV-D).
func midness(readRatio float64) float64 {
	return 1 - min(1, math.Abs(readRatio-0.75)/0.25)
}

// DRAMsim3Like is the behavioural replica of trace-driven DRAMsim3,
// calibrated against Figs. 6b and 7 of the paper:
//   - base read latency ≈ 55–68 ns depending on the traffic mix (curves for
//     different ratios are spread and intertwined across the whole range);
//   - latency rises linearly with bandwidth — no saturation knee at all;
//   - a latency peak around 2–5 GB/s (the paper links it to anomalously low
//     row-buffer hit rates at that load);
//   - bandwidth caps at ≈88% of the bus peak (113 of 128 GB/s);
//   - row-buffer hit rates stuck at 84–93% regardless of load, highest for
//     dominant-direction traffic.
type DRAMsim3Like struct {
	eng   *sim.Engine
	fifo  chanFIFO // caps bandwidth
	peak  float64
	track *bwTracker
	roll  xorshift
	rows  dram.RowStats
}

// NewDRAMsim3Like builds the replica for the spec's memory system.
func NewDRAMsim3Like(eng *sim.Engine, spec platform.Spec) *DRAMsim3Like {
	peak := spec.DRAM.PeakBandwidthGBs()
	cap := 0.88 * peak
	ch := spec.DRAM.Channels
	return &DRAMsim3Like{
		eng:   eng,
		fifo:  newChanFIFO(ch, cap/float64(ch)),
		peak:  peak,
		track: newBWTracker(sim.Microsecond),
		roll:  0x2545f4914f6cdd1d,
	}
}

// Access implements mem.Backend.
func (d *DRAMsim3Like) Access(req *mem.Request) {
	now := d.eng.Now()
	d.track.observe(now, req.Op)
	d.recordRow()
	req.CompleteAt(d.eng, d.fifo.admit(now, req.Addr)+sim.FromNanoseconds(d.latency()))
}

func (d *DRAMsim3Like) latency() float64 {
	bw := d.track.lastBW
	ratio := d.track.lastRd
	base := 55 + 13*midness(ratio) // intertwined mix-dependent bases
	linear := 45 * bw / d.peak     // linear rise, no saturation
	peakBump := 0.0                // the 2–5 GB/s anomaly
	if bw > 1 && bw < 6 {
		peakBump = 35 * (1 - math.Abs(bw-3.5)/2.5)
	}
	return base + linear + peakBump
}

// recordRow synthesizes the replica's row-buffer statistics: hit rates
// pinned at 84–93%, insensitive to load.
func (d *DRAMsim3Like) recordRow() {
	hit := 0.93 - 0.09*midness(d.track.lastRd)
	if d.track.lastBW > 1 && d.track.lastBW < 6 {
		hit = 0.33 // the low-bandwidth anomaly the paper correlates with the latency peak
	}
	if d.roll.next() < hit {
		d.rows.Hits++
	} else {
		d.rows.Misses++
	}
}

// RowStats reports the synthesized row-buffer statistics.
func (d *DRAMsim3Like) RowStats() dram.RowStats { return d.rows }

// RamulatorLike replicates ZSim-driven Ramulator as measured in Fig. 5f: a
// flat ≈25 ns memory latency at every load and no bandwidth limit (the
// paper measures 1.8× the theoretical peak). Its row-buffer statistics
// (Fig. 7) track the hardware for read traffic but stay far too high for
// write-heavy mixes.
type RamulatorLike struct {
	eng   *sim.Engine
	lat   sim.Time
	peak  float64
	track *bwTracker
	roll  xorshift
	rows  dram.RowStats
}

// NewRamulatorLike builds the replica.
func NewRamulatorLike(eng *sim.Engine, spec platform.Spec) *RamulatorLike {
	return &RamulatorLike{
		eng:   eng,
		lat:   sim.FromNanoseconds(25),
		peak:  spec.DRAM.PeakBandwidthGBs(),
		track: newBWTracker(sim.Microsecond),
		roll:  0x9e3779b97f4a7c15,
	}
}

// Access implements mem.Backend.
func (r *RamulatorLike) Access(req *mem.Request) {
	now := r.eng.Now()
	r.track.observe(now, req.Op)
	r.recordRow()
	req.CompleteAt(r.eng, now+r.lat)
}

func (r *RamulatorLike) recordRow() {
	ratio := r.track.lastRd
	util := min(1, r.track.lastBW/r.peak)
	var hit float64
	if ratio > 0.8 {
		// Read-dominant: resembles hardware — hits decay with load.
		hit = 0.84 - 0.45*util
	} else {
		// Write-heavy: hit rates greatly exceed the actual ones.
		hit = 0.88 - 0.05*util
	}
	roll := r.roll.next()
	switch {
	case roll < hit:
		r.rows.Hits++
	case roll < hit+0.10:
		r.rows.Empties++
	default:
		r.rows.Misses++
	}
}

// RowStats reports the synthesized row-buffer statistics.
func (r *RamulatorLike) RowStats() dram.RowStats { return r.rows }

// Ramulator2Like replicates Ramulator 2 as measured in Figs. 4d and 6a:
// unrealistically low latency in the linear region, then a near-vertical
// bandwidth wall at less than half the bandwidth the actual system
// sustains (126 GB/s against 292 GB/s measured on Graviton 3).
type Ramulator2Like struct {
	eng  *sim.Engine
	base sim.Time
	fifo chanFIFO
}

// NewRamulator2Like builds the replica.
func NewRamulator2Like(eng *sim.Engine, spec platform.Spec) *Ramulator2Like {
	peak := spec.DRAM.PeakBandwidthGBs()
	wall := 0.41 * peak
	ch := spec.DRAM.Channels
	return &Ramulator2Like{eng: eng, base: sim.FromNanoseconds(30), fifo: newChanFIFO(ch, wall/float64(ch))}
}

// Access implements mem.Backend.
func (r *Ramulator2Like) Access(req *mem.Request) {
	start := r.fifo.admit(r.eng.Now(), req.Addr)
	req.CompleteAt(r.eng, start+r.fifo.svc+r.base)
}
