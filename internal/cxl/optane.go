package cxl

import (
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Optane models an Intel Optane DC persistent-memory module in App Direct
// mode — the other non-DDR technology the Mess simulator release supports
// (footnote 3 of the paper: curves measured on a Cascade Lake server with
// 2×128 GB modules). Like the CXL expander, it lives in this package
// because it is characterized device-level and consumed through curves.
//
// The well-documented Optane behaviours the model encodes (Izraelevitz et
// al., "Basic Performance Measurements of the Intel Optane DC Persistent
// Memory Module"; Yang et al., FAST'20):
//   - idle read latency ≈ 170 ns at the module, far above DRAM;
//   - read bandwidth ≈ 6.6 GB/s per module, write ≈ 2.3 GB/s — strongly
//     asymmetric, unlike any DRAM;
//   - 256-byte internal access granularity: the on-module buffer merges
//     64-byte lines, so random traffic wastes device bandwidth;
//   - mixed read/write traffic interferes severely (writes stall reads in
//     the module's internal controller).
type Optane struct {
	eng *sim.Engine
	cfg OptaneConfig

	readFree  sim.Time
	writeFree sim.Time
}

// OptaneConfig parameterizes the module set.
type OptaneConfig struct {
	Modules      int
	ReadGBs      float64  // per-module sustained read bandwidth
	WriteGBs     float64  // per-module sustained write bandwidth
	ReadLatency  sim.Time // idle read latency at the module
	WriteLatency sim.Time // write acceptance latency (ADR buffered)
	// WriteStall is the extra read delay while writes drain: the
	// module's internal controller prioritizes its write buffer.
	WriteStall sim.Time
}

// DefaultOptane matches the paper's 2×128 GB App Direct setup.
func DefaultOptane() OptaneConfig {
	return OptaneConfig{
		Modules:      2,
		ReadGBs:      6.6,
		WriteGBs:     2.3,
		ReadLatency:  sim.FromNanoseconds(170),
		WriteLatency: sim.FromNanoseconds(94),
		WriteStall:   sim.FromNanoseconds(60),
	}
}

// NewOptane builds the module-set model.
func NewOptane(eng *sim.Engine, cfg OptaneConfig) *Optane {
	if cfg.Modules <= 0 {
		cfg.Modules = 1
	}
	return &Optane{eng: eng, cfg: cfg}
}

// Access implements mem.Backend. Reads and writes occupy separate internal
// engines (the module pipelines them independently up to their asymmetric
// bandwidths), but pending writes stall reads.
func (o *Optane) Access(req *mem.Request) {
	now := o.eng.Now()
	const bytes = float64(mem.LineSize)
	if req.Op == mem.Write {
		svc := sim.FromNanoseconds(bytes / (o.cfg.WriteGBs * float64(o.cfg.Modules)))
		start := max(now, o.writeFree)
		o.writeFree = start + svc
		req.CompleteAtTagged(o.eng, start+o.cfg.WriteLatency, DevTagBase)
		return
	}
	svc := sim.FromNanoseconds(bytes / (o.cfg.ReadGBs * float64(o.cfg.Modules)))
	start := max(now, o.readFree)
	// Reads behind a busy write buffer pay the interference penalty.
	if o.writeFree > now {
		start += o.cfg.WriteStall
	}
	o.readFree = start + svc
	req.CompleteAtTagged(o.eng, start+svc+o.cfg.ReadLatency, DevTagBase)
}

// OptaneFamily measures the module set's bandwidth–latency curves with the
// device-level sweep, ready for the Mess simulator.
func OptaneFamily(opt SweepOptions) *core.Family {
	cfg := DefaultOptane()
	peak := cfg.ReadGBs * float64(cfg.Modules)
	return MeasureFamily(func(eng *sim.Engine) mem.Backend {
		return NewOptane(eng, cfg)
	}, "Intel Optane DC (App Direct)", peak, opt)
}

var _ mem.Backend = (*Optane)(nil)
