// Package memmodel is the memory-model zoo: the baseline models the paper
// characterizes in Sec. IV, plus wrappers for the detailed DRAM model and
// the Mess analytical simulator, all behind one constructor.
//
// The external cycle-accurate simulators (DRAMsim3, Ramulator, Ramulator 2)
// are not ported; each is represented by a behavioural replica that encodes
// the *measured pathology the paper reports for it* — unrealistically low
// base latency, missing saturation, inflated row-buffer hit rates, an early
// bandwidth wall. The Mess methodology only observes models through their
// bandwidth–latency behaviour, so replicas that reproduce those behaviours
// reproduce the paper's findings. Each replica's doc comment cites the
// figure it is calibrated against.
package memmodel

import (
	"fmt"
	"strings"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/messsim"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// Kind names a memory model.
type Kind string

const (
	KindFixed       Kind = "fixed"        // fixed-latency, unlimited bandwidth
	KindMD1         Kind = "md1"          // M/D/1 queue per channel
	KindInternalDDR Kind = "internal-ddr" // simplified closed-page DDR
	KindDRAMsim3    Kind = "dramsim3"     // DRAMsim3 behavioural replica
	KindRamulator   Kind = "ramulator"    // Ramulator behavioural replica
	KindRamulator2  Kind = "ramulator2"   // Ramulator 2 behavioural replica
	KindReference   Kind = "reference"    // detailed DRAM model (stands in for hardware)
	KindMess        Kind = "mess"         // Mess analytical simulator
)

// Kinds lists every model in zoo order.
func Kinds() []Kind {
	return []Kind{KindFixed, KindMD1, KindInternalDDR, KindDRAMsim3, KindRamulator, KindRamulator2, KindReference, KindMess}
}

// Factory resolves a kind to the constructor of that model for the platform.
// The kind — and the curve family, which only the Mess kind reads and
// requires — is checked here, once: the factory it returns cannot fail, so a
// misspelt kind is an error before any simulation starts, never a panic
// inside a sweep worker.
func Factory(kind Kind, spec platform.Spec, fam *core.Family) (mem.BackendFactory, error) {
	switch kind {
	case KindFixed:
		lat := sim.FromNanoseconds(spec.UnloadedLatencyNs - spec.OnChipLatency.Nanoseconds())
		return func(eng *sim.Engine) mem.Backend { return NewFixed(eng, lat) }, nil
	case KindMD1:
		return func(eng *sim.Engine) mem.Backend { return NewMD1(eng, spec) }, nil
	case KindInternalDDR:
		return func(eng *sim.Engine) mem.Backend { return NewInternalDDR(eng, spec) }, nil
	case KindDRAMsim3:
		return func(eng *sim.Engine) mem.Backend { return NewDRAMsim3Like(eng, spec) }, nil
	case KindRamulator:
		return func(eng *sim.Engine) mem.Backend { return NewRamulatorLike(eng, spec) }, nil
	case KindRamulator2:
		return func(eng *sim.Engine) mem.Backend { return NewRamulator2Like(eng, spec) }, nil
	case KindReference:
		return func(eng *sim.Engine) mem.Backend { return dram.New(eng, spec.DRAM) }, nil
	case KindMess:
		if fam == nil {
			return nil, fmt.Errorf("memmodel: the mess model needs a curve family")
		}
		cfg := messsim.Config{Family: fam, CPULatencyNs: spec.OnChipLatency.Nanoseconds()}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func(eng *sim.Engine) mem.Backend { return messsim.New(eng, cfg) }, nil
	}
	have := make([]string, len(Kinds()))
	for i, k := range Kinds() {
		have[i] = string(k)
	}
	return nil, fmt.Errorf("memmodel: unknown model kind %q (have %s)", kind, strings.Join(have, ", "))
}

// New builds the model of the given kind for the platform spec on the
// engine: Factory and one call. The Mess kind additionally needs the
// measured curve family.
func New(kind Kind, eng *sim.Engine, spec platform.Spec, fam *core.Family) (mem.Backend, error) {
	mk, err := Factory(kind, spec, fam)
	if err != nil {
		return nil, err
	}
	return mk(eng), nil
}

// Fixed serves every request after a constant latency with no bandwidth
// limit — ZSim's fixed-latency model. The paper measures it delivering
// 342 GB/s on a 128 GB/s system, 2.7× the theoretical peak (Fig. 5b).
type Fixed struct {
	eng     *sim.Engine
	Latency sim.Time
}

// NewFixed builds a fixed-latency model.
func NewFixed(eng *sim.Engine, latency sim.Time) *Fixed {
	if latency < 0 {
		latency = 0
	}
	return &Fixed{eng: eng, Latency: latency}
}

// Access implements mem.Backend.
func (f *Fixed) Access(req *mem.Request) {
	req.CompleteAt(f.eng, f.eng.Now()+f.Latency)
}

// MD1 is ZSim's M/D/1 queue model: one deterministic-service FIFO per
// channel plus a base latency. It models the linear region well; the
// saturated region and the read/write differentiation are off (Fig. 5c) —
// the queue saturates abruptly rather than with the device's gradual knee,
// and a write costs the same as a read.
type MD1 struct {
	eng  *sim.Engine
	base sim.Time
	fifo chanFIFO
}

// NewMD1 derives the channel count and service rate from the spec.
func NewMD1(eng *sim.Engine, spec platform.Spec) *MD1 {
	ch := spec.DRAM.Channels
	perChan := spec.DRAM.PeakBandwidthGBs() / float64(ch)
	memLat := spec.UnloadedLatencyNs - spec.OnChipLatency.Nanoseconds() - float64(mem.LineSize)/perChan
	if memLat < 1 {
		memLat = 1
	}
	return &MD1{eng: eng, base: sim.FromNanoseconds(memLat), fifo: newChanFIFO(ch, perChan)}
}

// Access implements mem.Backend.
func (m *MD1) Access(req *mem.Request) {
	start := m.fifo.admit(m.eng.Now(), req.Addr)
	req.CompleteAt(m.eng, start+m.fifo.svc+m.base)
}

// chanFIFO is the bandwidth limit MD1 and two replicas share: lines
// interleave over the channels, and each channel serves one line at a time
// in arrival order at a fixed rate.
type chanFIFO struct {
	svc  sim.Time   // service time of one line on one channel
	free []sim.Time // per channel: when its last admitted line leaves service
}

func newChanFIFO(channels int, perChanGBs float64) chanFIFO {
	return chanFIFO{svc: sim.FromNanoseconds(float64(mem.LineSize) / perChanGBs), free: make([]sim.Time, channels)}
}

// admit queues the line at addr on its channel and reports when its service
// starts; it ends svc later.
func (f *chanFIFO) admit(now sim.Time, addr uint64) sim.Time {
	ch := addr / mem.LineSize % uint64(len(f.free))
	start := max(now, f.free[ch])
	f.free[ch] = start + f.svc
	return start
}
