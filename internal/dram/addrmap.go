package dram

import (
	"math/bits"

	"github.com/mess-sim/mess/internal/mem"
)

// Loc is a physical location in the memory system.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     int64
	Col     int // line index within the row
}

// Mapper translates physical addresses to device locations. The order is the
// common RoRaBaCoCh layout: cache-line interleaving across channels first
// (low bits), then columns within a row, then banks, ranks and rows. This
// gives a sequential stream channel-level parallelism and strong row-buffer
// locality within each channel — the behaviour the Mess traffic generator
// relies on — while independent streams collide on banks, which is what
// degrades the hit rate under load (Sec. III of the paper).
type Mapper struct {
	Channels    int
	Ranks       int
	Banks       int
	LinesPerRow int
	XORBankRow  bool

	// Shift widths when the corresponding dimension is a power of two
	// (-1 otherwise). Map runs once per transaction on the hottest entry
	// point of the memory system; every preset geometry except the
	// channel count is a power of two, and the shift form removes three
	// hardware divisions per call.
	colShift, bankShift, rankShift int8
}

// NewMapper builds a Mapper from a configuration.
func NewMapper(cfg *Config) Mapper {
	m := Mapper{
		Channels:    cfg.Channels,
		Ranks:       cfg.Ranks,
		Banks:       cfg.Banks,
		LinesPerRow: cfg.RowBytes / mem.LineSize,
		XORBankRow:  cfg.XORBankRow,
	}
	m.colShift = pow2Shift(m.LinesPerRow)
	m.bankShift = pow2Shift(m.Banks)
	m.rankShift = pow2Shift(m.Ranks)
	return m
}

func pow2Shift(v int) int8 {
	if v > 0 && v&(v-1) == 0 {
		return int8(bits.TrailingZeros64(uint64(v)))
	}
	return -1
}

// mapReq is the controller-path form of Map: it resolves only what the
// scheduler stores per request (channel, flat bank index, rank, row),
// skipping the column and the Loc copies of the general form.
func (m *Mapper) mapReq(addr uint64) (ch int, bi int32, rank int32, row int64) {
	line := addr / mem.LineSize
	ch = int(line % uint64(m.Channels))
	line /= uint64(m.Channels)
	var bank int
	if m.colShift >= 0 && m.bankShift >= 0 && m.rankShift >= 0 {
		line >>= uint(m.colShift)
		bank = int(line & uint64(m.Banks-1))
		line >>= uint(m.bankShift)
		rank = int32(line & uint64(m.Ranks-1))
		line >>= uint(m.rankShift)
	} else {
		line /= uint64(m.LinesPerRow)
		bank = int(line % uint64(m.Banks))
		line /= uint64(m.Banks)
		rank = int32(line % uint64(m.Ranks))
		line /= uint64(m.Ranks)
	}
	row = int64(line)
	if m.XORBankRow {
		bank = int((uint64(bank) ^ uint64(row)) % uint64(m.Banks))
	}
	return ch, int32(rank)*int32(m.Banks) + int32(bank), rank, row
}

// Map resolves addr to its location.
func (m Mapper) Map(addr uint64) Loc {
	line := addr / mem.LineSize
	ch := int(line % uint64(m.Channels))
	line /= uint64(m.Channels)
	var col, bank, rank int
	if m.colShift >= 0 && m.bankShift >= 0 && m.rankShift >= 0 {
		col = int(line & uint64(m.LinesPerRow-1))
		line >>= uint(m.colShift)
		bank = int(line & uint64(m.Banks-1))
		line >>= uint(m.bankShift)
		rank = int(line & uint64(m.Ranks-1))
		line >>= uint(m.rankShift)
	} else {
		col = int(line % uint64(m.LinesPerRow))
		line /= uint64(m.LinesPerRow)
		bank = int(line % uint64(m.Banks))
		line /= uint64(m.Banks)
		rank = int(line % uint64(m.Ranks))
		line /= uint64(m.Ranks)
	}
	row := int64(line)
	if m.XORBankRow {
		bank = int((uint64(bank) ^ uint64(row)) % uint64(m.Banks))
	}
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: col}
}

// BankRow resolves addr to a globally flat bank index (channel, rank and
// bank folded into one number) and its row — the projection trace
// fingerprinting needs to estimate row-buffer locality under this
// geometry without simulating the controller. The signature matches
// trace.SampleConfig.BankRow.
func (m Mapper) BankRow(addr uint64) (bank int, row int64) {
	l := m.Map(addr)
	return (l.Channel*m.Ranks+l.Rank)*m.Banks + l.Bank, l.Row
}
