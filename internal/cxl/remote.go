package cxl

import (
	"math"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// DefaultRemoteSocket is the industrial CXL-emulation practice the paper's
// Appendix B evaluates, as an expander configuration: the second socket of
// a dual-socket server used as a CPU-less memory expander is a link hop in
// front of a DDR system. Requests cross the inter-socket interconnect
// (UPI-class: a 92 ns hop each way, and a link that never queues) into a
// full DDR memory system of a Skylake-class server, its population trimmed
// so the remote bandwidth exceeds the CXL device's saturated range but stays
// in the same class. It has more channels and banks than the CXL device,
// hence a higher saturated-bandwidth range, but a higher unloaded latency
// (the paper measures ≈28 ns over the CXL device at low load).
func DefaultRemoteSocket() Config {
	return Config{
		TxGBs:             math.Inf(1),
		RxGBs:             math.Inf(1),
		PropagationOneWay: sim.FromNanoseconds(92),
		DDR:               dram.DDR4(2666, 2, 1),
	}
}

// RemoteSocketFamily measures the remote-socket emulation's curves with the
// same device-level sweep used for the CXL expander, so the two are
// directly comparable (Fig. 17). Its theoretical bandwidth is the DDR
// system's peak.
func RemoteSocketFamily(opt SweepOptions) *core.Family {
	cfg := DefaultRemoteSocket()
	return MeasureFamily(func(eng *sim.Engine) mem.Backend {
		return New(eng, cfg)
	}, "Remote-socket emulation", cfg.DDR.PeakBandwidthGBs(), opt)
}
