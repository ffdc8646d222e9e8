// Package messsim implements the Mess analytical memory simulator
// (Sec. V-A of the paper, Figs. 8–9).
//
// Instead of simulating DRAM devices, the model holds the current operating
// point (messBW, Latency) on the platform's measured bandwidth–latency
// curve family and serves every request with that latency. At the end of
// each simulation window (1000 memory operations by default) it compares
// the bandwidth the CPU actually generated, cpuBW, against messBW; on a
// mismatch it moves the operating point part-way toward cpuBW — a
// proportional feedback controller — and reads the new latency off the
// curve for the window's read/write composition. The controller therefore
// never computes memory timing; it detects and corrects inconsistency
// between the simulated latency and the bandwidth that latency produces.
package messsim

import (
	"fmt"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Config parameterizes the simulator.
type Config struct {
	// Family is the bandwidth–latency characterization of the memory
	// system being modelled — measured on hardware, produced by the Mess
	// benchmark on the reference model, or provided by a manufacturer.
	Family *core.Family
	// WindowOps is the control-loop window length in memory operations.
	WindowOps int
	// ConvFactor is the proportional gain: messBW moves this fraction of
	// the (cpuBW − messBW) error per window.
	ConvFactor float64
	// CPULatencyNs is the on-chip (core + caches + NoC) component included
	// in the family's load-to-use latencies but already simulated by the
	// CPU side; it is subtracted before handing the latency to the CPU
	// simulator (the Latency^Memory = Latency − Latency^CPU step).
	CPULatencyNs float64
	// MaxErrorFactor slew-limits the controller: within one window the
	// effective cpuBW is clamped to [messBW/f, messBW·f]. With the bus
	// cap active the observed bandwidth is already bounded by the curve
	// maximum, so the slew only guards cold-start transients; the default
	// is loose enough to converge from idle in a handful of windows.
	// Tighten it when DisableBusCap is set.
	MaxErrorFactor float64
	// DisableBusCap turns off the channel-capacity limiter. By default
	// every request also occupies a FIFO "bus" slot with service time
	// 64 B / maxBW(ratio): a real memory system cannot admit traffic
	// beyond its peak, and the CPU simulators Mess integrates with model
	// the same port limit. Below saturation the added wait is a fraction
	// of a nanosecond; at the wall it provides the physical push-back.
	DisableBusCap bool
}

const (
	// tolerance is the relative bandwidth mismatch below which the
	// operating point is left untouched.
	tolerance = 0.02
	// minLatencyNs floors the memory-side latency after CPU subtraction.
	minLatencyNs = 2
	// minWindow is the minimum simulated duration of a control window.
	// Closed-loop requesters complete and re-issue in bursts, so a window
	// of WindowOps operations can span a fraction of one memory round
	// trip and report a meaninglessly inflated bandwidth; the window is
	// held open until it covers both WindowOps operations and
	// max(minWindow, 2× current latency).
	minWindow = 250 * sim.Nanosecond
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.WindowOps == 0 {
		out.WindowOps = 1000
	}
	if out.ConvFactor == 0 {
		out.ConvFactor = 0.5
	}
	if out.MaxErrorFactor == 0 {
		out.MaxErrorFactor = 8
	}
	return out
}

// Validate reports an error for an unusable configuration.
func (c *Config) Validate() error {
	if c.Family == nil {
		return fmt.Errorf("messsim: config needs a curve family")
	}
	if err := c.Family.Validate(); err != nil {
		return err
	}
	if c.ConvFactor < 0 || c.ConvFactor > 1 {
		return fmt.Errorf("messsim: convergence factor %v outside (0,1]", c.ConvFactor)
	}
	return nil
}

// Stats expose the controller's behaviour for validation and debugging.
type Stats struct {
	Windows     uint64
	Adjustments uint64
	MessBWGBs   float64 // current operating-point bandwidth
	LatencyNs   float64 // current full load-to-use latency from the curves
	ReadRatio   float64 // read ratio of the last window
}

// Simulator is the analytical model; it implements mem.Backend.
type Simulator struct {
	eng *sim.Engine
	cfg Config

	memLat  sim.Time // latency currently applied to each request
	messBW  float64
	curLat  float64 // full curve latency at the operating point
	started bool

	busSvc  sim.Time // per-request bus occupancy (64 B / max curve BW)
	busFree sim.Time

	winOps     int
	winBytes   uint64
	winRdBytes uint64
	winStart   sim.Time

	stats Stats
}

// New builds the simulator; it panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{eng: eng, cfg: cfg}
	// Start from the unloaded point of the pure-read curve, as the paper
	// suggests ("the simulation can start from any memory access latency,
	// e.g. the unloaded one").
	s.messBW = 0.1
	s.curLat = cfg.Family.LatencyAt(1.0, s.messBW)
	s.setBusService(1.0)
	s.applyLatency()
	return s
}

func (s *Simulator) setBusService(ratio float64) {
	if s.cfg.DisableBusCap {
		s.busSvc = 0
		return
	}
	maxBW := s.cfg.Family.MaxBWAt(ratio)
	if maxBW <= 0 {
		s.busSvc = 0
		return
	}
	s.busSvc = sim.FromNanoseconds(float64(mem.LineSize) / maxBW)
}

func (s *Simulator) applyLatency() {
	memLat := s.curLat - s.cfg.CPULatencyNs
	if memLat < minLatencyNs {
		memLat = minLatencyNs
	}
	s.memLat = sim.FromNanoseconds(memLat)
	s.stats.MessBWGBs = s.messBW
	s.stats.LatencyNs = s.curLat
}

// Access serves one request with the operating point's latency and runs the
// control loop at window boundaries.
func (s *Simulator) Access(req *mem.Request) {
	now := s.eng.Now()
	if !s.started {
		s.started = true
		s.winStart = now
	}
	s.winBytes += mem.LineSize
	if req.Op == mem.Read {
		s.winRdBytes += mem.LineSize
	}
	s.winOps++

	slot := now
	if s.busSvc > 0 {
		if s.busFree < now {
			s.busFree = now
		}
		slot = s.busFree
		s.busFree += s.busSvc
	}
	// Allocation-free completion: the deadline rides in the event and the
	// pooled record returns to its pool when Done returns.
	req.CompleteAt(s.eng, slot+s.memLat)

	if s.winOps >= s.cfg.WindowOps {
		s.adjust(now)
	}
}

// adjust is one iteration of the feedback control loop (Fig. 9).
func (s *Simulator) adjust(now sim.Time) {
	dur := now - s.winStart
	minDur := minWindow
	if twice := 2 * s.memLat; twice > minDur {
		minDur = twice
	}
	if dur < minDur {
		// Burst of arrivals: keep the window open until it spans enough
		// simulated time for the bandwidth estimate to mean something.
		return
	}
	cpuBW := float64(s.winBytes) / dur.Seconds() / 1e9
	ratio := 1.0
	if s.winBytes > 0 {
		ratio = float64(s.winRdBytes) / float64(s.winBytes)
	}
	s.stats.ReadRatio = ratio
	s.stats.Windows++

	// Slew-limit the observed bandwidth before computing the error.
	f := s.cfg.MaxErrorFactor
	if cpuBW > s.messBW*f {
		cpuBW = s.messBW * f
	}
	if cpuBW < s.messBW/f {
		cpuBW = s.messBW / f
	}
	err := cpuBW - s.messBW
	if abs(err) > tolerance*s.messBW {
		s.messBW += s.cfg.ConvFactor * err
		if s.messBW < 0.01 {
			s.messBW = 0.01
		}
		s.stats.Adjustments++
	}
	s.curLat = s.cfg.Family.LatencyAt(ratio, s.messBW)
	s.setBusService(ratio)
	s.applyLatency()

	s.winOps = 0
	s.winBytes = 0
	s.winRdBytes = 0
	s.winStart = now
}

// Stats reports the controller state.
func (s *Simulator) Stats() Stats { return s.stats }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

var _ mem.Backend = (*Simulator)(nil)
