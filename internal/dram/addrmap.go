package dram

import (
	"math/bits"

	"github.com/mess-sim/mess/internal/mem"
)

// Mapper translates physical addresses to device locations. The order is the
// common RoRaBaCoCh layout: cache-line interleaving across channels first
// (low bits), then columns within a row, then banks, ranks and rows. This
// gives a sequential stream channel-level parallelism and strong row-buffer
// locality within each channel — the behaviour the Mess traffic generator
// relies on — while independent streams collide on banks, which is what
// degrades the hit rate under load (Sec. III of the paper).
//
// decode is the only address decode in the repository: the controller
// (mapReq, on every System access) and trace fingerprinting
// (BankRow) both go through it, so a change to the mapping reaches both.
type Mapper struct {
	Channels    int
	Ranks       int
	Banks       int
	LinesPerRow int

	// Shift widths of the power-of-two dimensions (Config.Validate requires
	// ranks, banks and lines per row to be powers of two). The channel
	// count need not be: six- and three-channel systems exist.
	colShift, bankShift, rankShift uint8
}

// NewMapper builds a Mapper from a configuration. It panics on a
// configuration Validate rejects (configurations are code, not user input).
func NewMapper(cfg *Config) Mapper {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := Mapper{
		Channels:    cfg.Channels,
		Ranks:       cfg.Ranks,
		Banks:       cfg.Banks,
		LinesPerRow: cfg.RowBytes / mem.LineSize,
	}
	m.colShift = uint8(bits.TrailingZeros(uint(m.LinesPerRow)))
	m.bankShift = uint8(bits.TrailingZeros(uint(m.Banks)))
	m.rankShift = uint8(bits.TrailingZeros(uint(m.Ranks)))
	return m
}

// decode resolves addr to its channel, rank, bank, row and column (the
// line index within the row).
func (m *Mapper) decode(addr uint64) (ch, rank, bank int, row int64, col int) {
	line := addr / mem.LineSize
	ch = int(line % uint64(m.Channels))
	line /= uint64(m.Channels)
	col = int(line & uint64(m.LinesPerRow-1))
	line >>= m.colShift
	bank = int(line & uint64(m.Banks-1))
	line >>= m.bankShift
	rank = int(line & uint64(m.Ranks-1))
	return ch, rank, bank, int64(line >> m.rankShift), col
}

// mapReq is the controller's form of decode: what the scheduler stores per
// request (channel, bank index within the channel, rank, row).
func (m *Mapper) mapReq(addr uint64) (ch int, bi int32, rank int32, row int64) {
	ch, r, bank, row, _ := m.decode(addr)
	return ch, int32(r*m.Banks + bank), int32(r), row
}

// BankRow resolves addr to a globally flat bank index (channel, rank and
// bank folded into one number) and its row — the projection trace
// fingerprinting needs to estimate row-buffer locality under this
// geometry without simulating the controller. The signature matches
// trace.SampleConfig.BankRow.
func (m Mapper) BankRow(addr uint64) (bank int, row int64) {
	ch, rank, b, row, _ := m.decode(addr)
	return ch*m.Ranks*m.Banks + rank*m.Banks + b, row
}
