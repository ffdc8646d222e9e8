package trace

import (
	"encoding/binary"
	"io"

	"github.com/mess-sim/mess/internal/sim"
)

// Source is a record sequence as Replay, Sampled and Save read it: a
// *Trace, or the *Packed capture CapturePoint returns. Every reader keeps
// its own decode state in a cursor, so one source serves any number of
// concurrent readers as long as nothing records into it meanwhile.
type Source interface {
	// Len reports how many records the source holds.
	Len() int
	// cursor returns a reader positioned at record i, 0 ≤ i ≤ Len().
	cursor(i int) cursor
}

// recorder is a Source a Capture records into.
type recorder interface {
	Source
	add(Record)
}

// Len reports how many records the trace holds.
func (t *Trace) Len() int { return len(t.Records) }

func (t *Trace) cursor(i int) cursor { return cursor{buf: t.Records, j: i} }

func (t *Trace) add(r Record) { t.Records = append(t.Records, r) }

// The packed form's layout.
const (
	// markEvery is the number of records between random-access marks: a
	// cursor starts at a mark and decodes at most markEvery−1 records to
	// reach any index.
	markEvery = 256
	// blockBytes is the size of every block. Blocks are allocated full
	// size and never grown, so recording never copies what it holds.
	blockBytes = 64 << 10
	// maxRecordBytes is the most one encoded record takes: a record
	// starts a new block when fewer bytes than this remain in the last.
	maxRecordBytes = 2 * binary.MaxVarintLen64
)

// Packed is a trace held packed in memory, about 6.5 bytes a record on the
// fig6 captures instead of a Record's 24. Each record is coded against the
// one before it:
//
//   - the timestamp delta, shifted left over the write bit, as a uvarint;
//     a delta of 2^63 or more (only a timestamp that goes backwards, or a
//     jump of 106 days, needs one) spills its top bit into a tenth byte,
//     so any sequence of records round-trips;
//   - the address delta as a zigzag varint (binary.AppendVarint), modulo
//     2^64.
//
// The bytes fill fixed-size blocks, and every markEvery-th record has a
// mark: where its bytes start and the record before it, from which a cursor
// decodes forward. The zero value is an empty trace.
type Packed struct {
	blocks [][]byte
	marks  []mark
	n      int
	last   Record // the record the next one is coded against
}

// mark is the decode state at record markEvery·k: the offset of its bytes
// (block·blockBytes + offset within the block) and the record before it
// (the zero Record for the first).
type mark struct {
	pos  int
	at   sim.Time
	addr uint64
}

// Len reports how many records the trace holds.
func (p *Packed) Len() int { return p.n }

// Save serializes the trace in the release text format, byte for byte what
// (*Trace).Save writes for the same records.
func (p *Packed) Save(w io.Writer) error { return save(w, p) }

func (p *Packed) add(r Record) {
	b := len(p.blocks) - 1
	if b < 0 || blockBytes-len(p.blocks[b]) < maxRecordBytes {
		p.blocks = append(p.blocks, make([]byte, 0, blockBytes))
		b++
	}
	blk := p.blocks[b]
	if p.n%markEvery == 0 {
		p.marks = append(p.marks, mark{pos: b*blockBytes + len(blk), at: p.last.At, addr: p.last.Addr})
	}
	d := uint64(r.At - p.last.At)
	first := byte(d&0x3f) << 1
	if r.Write {
		first |= 1
	}
	if d >>= 6; d == 0 {
		blk = append(blk, first)
	} else {
		blk = binary.AppendUvarint(append(blk, first|0x80), d)
	}
	p.blocks[b] = binary.AppendVarint(blk, int64(r.Addr-p.last.Addr))
	p.last = r
	p.n++
}

// decode appends the records of mark g's group — records markEvery·g up
// to the next mark or the end — to buf[:0].
func (p *Packed) decode(g int, buf []Record) []Record {
	m := p.marks[g]
	b, off := m.pos/blockBytes, m.pos%blockBytes
	blk := p.blocks[b]
	at, addr := m.at, m.addr
	buf = buf[:min(markEvery, p.n-g*markEvery)]
	for i := range buf {
		if off == len(blk) {
			b, off = b+1, 0
			blk = p.blocks[b]
		}
		// The timestamp delta: its low 6 bits beside the write bit, then
		// the rest as a uvarint, whose first byte is unrolled (deltas under
		// 8 ns, most of a capture, end there).
		c0 := blk[off]
		off++
		d := uint64(c0>>1) & 0x3f
		if c0 >= 0x80 {
			c := blk[off]
			off++
			d |= uint64(c&0x7f) << 6
			if c >= 0x80 {
				v, k := binary.Uvarint(blk[off:])
				d |= v << 13
				off += k
			}
		}
		at += sim.Time(d)
		// The address delta, a zigzag varint.
		v := uint64(blk[off])
		off++
		if v >= 0x80 {
			v &= 0x7f
			for s := uint(7); ; s += 7 {
				c := blk[off]
				off++
				v |= uint64(c&0x7f) << s
				if c < 0x80 {
					break
				}
			}
		}
		addr += uint64(int64(v>>1) ^ -int64(v&1))
		buf[i] = Record{At: at, Addr: addr, Write: c0&1 != 0}
	}
	return buf
}

func (p *Packed) cursor(i int) cursor {
	c := cursor{p: p, g: i / markEvery}
	if i < p.n {
		c.buf = make([]Record, 0, markEvery)
		c.fill()
		c.j = i % markEvery
	}
	return c
}

// cursor reads a source's records in order. A *Trace's cursor indexes its
// records; a *Packed's decodes one mark's group at a time into a buffer
// of its own.
type cursor struct {
	buf []Record // the records at hand: all of a *Trace's, one group of a *Packed's
	j   int      // the next record's index in buf
	p   *Packed  // nil for a *Trace
	g   int      // the group to decode when buf runs out
}

// peek returns the next record without consuming it. Reading past the
// source's end panics.
func (c *cursor) peek() Record {
	if c.j == len(c.buf) {
		c.fill()
	}
	return c.buf[c.j]
}

// next returns the next record and moves past it.
func (c *cursor) next() Record {
	if c.j == len(c.buf) {
		c.fill()
	}
	c.j++
	return c.buf[c.j-1]
}

// fill stays out of line so that peek and next inline.
//
//go:noinline
func (c *cursor) fill() {
	c.buf = c.p.decode(c.g, c.buf)
	c.g++
	c.j = 0
}
