package memmodel

import (
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// InternalDDR is the "internal DDR model" that ships inside ZSim and gem5:
// a bank-aware but closed-page, FIFO-per-channel DDR approximation.
//
// Encoded pathologies, from Fig. 5d of the paper:
//   - every access pays the full ACT+CAS(+PRE) path (closed page), so the
//     model underestimates the saturated bandwidth (69–93 GB/s measured
//     against 92–116 GB/s on the real 128 GB/s system);
//   - writes are excessively penalized (per-write recovery on the bank and
//     a turnaround on every direction switch — no write batching), so
//     write-heavy curves spread far below their hardware counterparts;
//   - FIFO head-of-line blocking on a busy bank idles the channel, and
//     periodic refresh stalls produce latency spikes visible even in the
//     low-bandwidth region.
type InternalDDR struct {
	eng *sim.Engine

	channels int
	banks    int

	access   sim.Time // ACT+CAS service per access (closed page)
	burst    sim.Time
	wr       sim.Time
	turn     sim.Time
	refi     sim.Time
	rfc      sim.Time
	baseLat  sim.Time // controller + device pipe latency added to reads
	bankFree [][]sim.Time
	busFree  []sim.Time
	lastIsW  []bool

	queues  [][]*mem.Request
	pending []bool
	serveFn []func() // per channel, allocated once: the serve-resume event
}

// NewInternalDDR derives geometry and timing from the platform's DRAM
// configuration.
func NewInternalDDR(eng *sim.Engine, spec platform.Spec) *InternalDDR {
	d := spec.DRAM
	m := &InternalDDR{
		eng:      eng,
		channels: d.Channels,
		banks:    d.Banks,
		access:   d.Timing.RCD + d.Timing.CL,
		burst:    d.Timing.Burst,
		wr:       d.Timing.WR,
		turn:     d.Timing.WTR,
		refi:     d.Timing.REFI,
		rfc:      d.Timing.RFC,
		baseLat:  d.Timing.RCD + d.Timing.CL + d.Timing.Burst,
	}
	m.bankFree = make([][]sim.Time, d.Channels)
	for i := range m.bankFree {
		m.bankFree[i] = make([]sim.Time, d.Banks)
	}
	m.busFree = make([]sim.Time, d.Channels)
	m.lastIsW = make([]bool, d.Channels)
	m.queues = make([][]*mem.Request, d.Channels)
	m.pending = make([]bool, d.Channels)
	m.serveFn = make([]func(), d.Channels)
	for ch := 0; ch < d.Channels; ch++ {
		ch := ch
		m.serveFn[ch] = func() {
			m.pending[ch] = false
			m.serve(ch)
		}
	}
	return m
}

// Access implements mem.Backend.
func (m *InternalDDR) Access(req *mem.Request) {
	ch := int(req.Addr / mem.LineSize % uint64(m.channels))
	m.queues[ch] = append(m.queues[ch], req)
	m.serve(ch)
}

// serve processes the channel queue nearly in order: it may skip one
// blocked entry to reach a ready bank (the minimal reorder these simple
// models perform), but has none of FR-FCFS's row-hit awareness. Together
// with the small per-access scheduling bubble this pins the model between
// full head-of-line collapse and the reference's throughput — the 54–73%
// band of Fig. 5d.
func (m *InternalDDR) serve(ch int) {
	if m.pending[ch] || len(m.queues[ch]) == 0 {
		return
	}
	now := m.eng.Now()
	idx := 0
	horizon := max(now, m.busFree[ch])
	for i := 0; i < 2 && i < len(m.queues[ch]); i++ {
		b := int(m.queues[ch][i].Addr / mem.LineSize / uint64(m.channels) % uint64(m.banks))
		if m.bankFree[ch][b] <= horizon {
			idx = i
			break
		}
	}
	req := m.queues[ch][idx]
	m.queues[ch] = append(m.queues[ch][:idx], m.queues[ch][idx+1:]...)

	bank := int(req.Addr / mem.LineSize / uint64(m.channels) % uint64(m.banks))
	isW := req.Op == mem.Write

	start := max(now, m.bankFree[ch][bank], m.busFree[ch])
	if m.lastIsW[ch] != isW {
		start += m.turn
	}
	start = m.refreshAdjust(ch, start)

	busy := m.access + m.burst
	if isW {
		busy += m.wr // per-write recovery charged on the critical path
	}
	end := start + busy
	m.bankFree[ch][bank] = end
	// The data bus pipelines across banks, with a small per-access
	// scheduling bubble a real controller would hide.
	m.busFree[ch] = start + m.burst + m.access/16
	m.lastIsW[ch] = isW

	req.CompleteAt(m.eng, end)
	m.pending[ch] = true
	m.eng.Schedule(max(now, start), m.serveFn[ch])
}

// refreshAdjust stalls commands that land in a refresh window.
func (m *InternalDDR) refreshAdjust(ch int, t sim.Time) sim.Time {
	if m.refi <= 0 {
		return t
	}
	off := m.refi * sim.Time(ch+1) / sim.Time(m.channels+1)
	if t < off {
		return t
	}
	k := (t - off) / m.refi
	start := off + k*m.refi
	if t < start+m.rfc {
		return start + m.rfc
	}
	return t
}
