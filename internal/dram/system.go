package dram

import (
	"fmt"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// System is a complete multi-channel memory system. It implements
// mem.Backend: requests are mapped to a channel and scheduled there.
type System struct {
	eng    *sim.Engine
	cfg    Config
	mapper Mapper
	chans  []*channel
}

// New builds a memory system on the given engine. It panics on an invalid
// configuration (configurations are code, not user input).
func New(eng *sim.Engine, cfg Config) *System {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{eng: eng, cfg: cfg, mapper: NewMapper(&cfg)}
	s.chans = make([]*channel, cfg.Channels)
	for i := range s.chans {
		s.chans[i] = &channel{}
	}
	s.Reset()
	return s
}

// Reset returns the system to the state New left it in — empty queues,
// closed rows, zero statistics — by running every channel's constructor again
// over the storage the channel has grown, for reuse on an engine that was
// itself Reset. Requests the system still held are forgotten, not completed:
// their pool must reclaim them (mem.RequestPool.Reset).
func (s *System) Reset() {
	for i, c := range s.chans {
		c.init(s.eng, &s.cfg, i)
	}
}

// PeakBandwidthGBs reports the theoretical maximum bandwidth.
func (s *System) PeakBandwidthGBs() float64 { return s.cfg.PeakBandwidthGBs() }

// Access submits one transaction, taking ownership of the request. Its
// completion fires at data return for reads, or at controller acceptance
// for (posted) writes; the record returns to its pool either way.
func (s *System) Access(req *mem.Request) {
	ch, bi, rank, row := s.mapper.mapReq(req.Addr)
	s.chans[ch].enqueue(req, bi, rank, row)
}

// AccessAt submits one transaction for delivery at absolute time at — the
// backend-routed form of the issuer's SendAt hop (mem.TimedBackend). It
// schedules the same delivery event the issuer would have; it stays so that
// a CountingBackend over the system counts each request at send, which
// decides the window of every request that straddles a measurement
// boundary, and every charz fingerprint since charz/v2 was measured so.
func (s *System) AccessAt(req *mem.Request, at sim.Time) {
	req.SendAt(s.eng, s, at)
}

// RowStats reports accumulated row-buffer hit/empty/miss statistics.
func (s *System) RowStats() RowStats {
	var total RowStats
	for _, c := range s.chans {
		total.Hits += c.rowStats.Hits
		total.Empties += c.rowStats.Empties
		total.Misses += c.rowStats.Misses
	}
	return total
}

// Queued reports the number of requests currently waiting in controller
// queues, for back-pressure diagnostics.
func (s *System) Queued() int {
	n := 0
	for _, c := range s.chans {
		n += c.queued()
	}
	return n
}

func (s *System) String() string {
	return fmt.Sprintf("%s ×%d channels (peak %.1f GB/s)", s.cfg.Name, s.cfg.Channels, s.PeakBandwidthGBs())
}

var _ mem.Backend = (*System)(nil)
var _ mem.TimedBackend = (*System)(nil)
