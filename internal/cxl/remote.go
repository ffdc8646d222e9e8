package cxl

import (
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// RemoteSocket models the industrial CXL-emulation practice the paper's
// Appendix B evaluates: using the second socket of a dual-socket server as
// a CPU-less memory expander. Requests cross the inter-socket interconnect
// (UPI-class, adding latency in both directions) into a full DDR memory
// system — more channels and banks than the CXL device, hence a higher
// saturated-bandwidth range, but a higher unloaded latency (the paper
// measures ≈28 ns over the CXL device at low load).
type RemoteSocket struct {
	eng    *sim.Engine
	hop    sim.Time
	ddr    *dram.System
	pool   *mem.RequestPool
	doneFn mem.DoneFunc
}

// RemoteSocketConfig parameterizes the emulation.
type RemoteSocketConfig struct {
	// HopOneWay is the inter-socket interconnect latency per direction.
	HopOneWay sim.Time
	// DDR is the remote socket's memory system.
	DDR dram.Config
}

// DefaultRemoteSocket matches the Appendix-B setup: the remote socket of a
// Skylake-class server, reached over a ≈65 ns one-way hop, with its memory
// population trimmed so the remote bandwidth exceeds the CXL device's
// saturated range but stays in the same class (the paper's emulation
// reaches higher bandwidth than the target CXL device).
func DefaultRemoteSocket() RemoteSocketConfig {
	return RemoteSocketConfig{
		HopOneWay: sim.FromNanoseconds(92),
		DDR:       dram.DDR4(2666, 2, 1),
	}
}

// NewRemoteSocket builds the model.
func NewRemoteSocket(eng *sim.Engine, cfg RemoteSocketConfig) *RemoteSocket {
	r := &RemoteSocket{
		eng:  eng,
		hop:  cfg.HopOneWay,
		ddr:  dram.New(eng, cfg.DDR),
		pool: mem.NewRequestPool(),
	}
	r.doneFn = r.remoteDone
	return r
}

// Access implements mem.Backend: a hop out, the remote DDR access, a hop
// back. The socket-side transaction is a pooled inner request linked to
// the host request via Parent.
func (r *RemoteSocket) Access(req *mem.Request) {
	inner := r.pool.Get(req.Addr, req.Op, r.doneFn)
	inner.Parent = req
	inner.SendAt(r.eng, r.ddr, r.eng.Now()+r.hop)
}

// remoteDone completes the host request one hop after the remote DDR does.
func (r *RemoteSocket) remoteDone(ddrDone sim.Time, inner *mem.Request) {
	inner.Parent.CompleteAtTagged(r.eng, ddrDone+r.hop, DevTagBase)
}

// RemoteSocketFamily measures the remote-socket emulation's curves with the
// same device-level sweep used for the CXL expander, so the two are
// directly comparable (Fig. 17).
func RemoteSocketFamily(opt SweepOptions) *core.Family {
	cfg := DefaultRemoteSocket()
	peak := cfg.DDR.PeakBandwidthGBs()
	return MeasureFamily(func(eng *sim.Engine) mem.Backend {
		return NewRemoteSocket(eng, cfg)
	}, "Remote-socket emulation", peak, opt)
}

var _ mem.Backend = (*RemoteSocket)(nil)
