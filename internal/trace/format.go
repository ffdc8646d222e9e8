package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"

	"github.com/mess-sim/mess/internal/sim"
)

// The release text format: a "# mess trace: N records" header, then one
// "at_ps 0xaddr R|W" triple per line. Blank lines and '#' comments may
// appear anywhere.
const (
	headerPrefix = "# mess trace: "
	headerSuffix = " records"

	// maxLineBytes is the longest line Read accepts, terminator excluded.
	maxLineBytes = 1<<20 - 1
	// minLineBytes is the shortest line that holds a record ("0 0 R\n"):
	// an input of n bytes cannot hold more than n/minLineBytes records.
	minLineBytes = 6
	// sizelessReserve caps the reservation a header can ask for when the
	// reader cannot say how much input it holds.
	sizelessReserve = 1 << 16

	saveChunk = 32 << 10
)

// Save serializes the trace in the release text format.
func (t *Trace) Save(w io.Writer) error {
	// Records are appended to one buffer that goes to w whenever it passes
	// saveChunk; the slack keeps a whole line inside the first allocation.
	buf := make([]byte, 0, saveChunk+64)
	buf = append(buf, headerPrefix...)
	buf = strconv.AppendInt(buf, int64(len(t.Records)), 10)
	buf = append(buf, headerSuffix...)
	buf = append(buf, '\n')
	for i := range t.Records {
		r := &t.Records[i]
		buf = strconv.AppendInt(buf, int64(r.At), 10)
		buf = append(buf, " 0x"...)
		buf = strconv.AppendUint(buf, r.Addr, 16)
		if r.Write {
			buf = append(buf, " W\n"...)
		} else {
			buf = append(buf, " R\n"...)
		}
		if len(buf) >= saveChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// Read parses a trace written by Save. Timestamps must be non-decreasing:
// an out-of-order record would silently corrupt Duration and replay pacing
// (replay delivers records in index order and assumes that is also time
// order), so Read rejects it with the offending line number instead of
// deferring the breakage to analysis time.
//
// The input is streamed, and Records is sized once from the header's count
// when there is one. The header is only a hint from an untrusted file: the
// reservation never exceeds what the input can hold (its size, for readers
// that report one through Stat or Len, over the shortest possible line;
// sizelessReserve records otherwise), and a trace holding more records
// than announced still reads in full.
func Read(r io.Reader) (*Trace, error) {
	p := parser{reserve: maxRecords(r)}
	br := bufio.NewReaderSize(r, maxLineBytes+1)
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		// A caller's own, larger bufio.Reader comes back from NewReaderSize
		// as it is, so the length is checked here as well.
		if err == bufio.ErrBufferFull || len(line) > maxLineBytes {
			return nil, fmt.Errorf("trace: line %d: longer than %d bytes", lineNo, maxLineBytes)
		}
		if len(line) > 0 {
			if perr := p.line(line); perr != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, perr)
			}
		}
		if err == io.EOF {
			return &Trace{Records: p.recs}, nil
		}
	}
}

// maxRecords bounds how many records r can hold, from the size r reports.
func maxRecords(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }: // *os.File
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size() / minLineBytes)
		}
	case interface{ Len() int }: // bytes.Buffer, bytes.Reader, strings.Reader
		return v.Len() / minLineBytes
	}
	return sizelessReserve
}

// parser accumulates the records of one Read.
type parser struct {
	recs    []Record
	prevAt  sim.Time
	reserve int // most records a header may reserve
}

// line parses one non-empty line, terminator stripped. Its errors carry no
// position; Read adds the line number.
func (p *parser) line(b []byte) error {
	rec, ok := parseSaved(b)
	if !ok {
		// Anything but the exact bytes Save writes for a record — comments,
		// extra or non-ASCII whitespace, signs, a malformed field — takes
		// the general path, which decides with strconv itself.
		return p.lineGeneral(b)
	}
	if err := p.checkOrder(rec.At); err != nil {
		return err
	}
	p.add(rec)
	return nil
}

func (p *parser) add(rec Record) {
	p.prevAt = rec.At
	p.recs = append(p.recs, rec)
}

func (p *parser) checkOrder(at sim.Time) error {
	if len(p.recs) > 0 && at < p.prevAt {
		return fmt.Errorf("non-monotonic timestamp %d (previous record at %d)", int64(at), int64(p.prevAt))
	}
	return nil
}

// hexVal maps an ASCII hex digit to its value and every other byte to 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
		t[c-'a'+'A'] = c - 'a' + 10
	}
	return t
}()

// parseSaved parses a line of exactly the form Save writes: 1–18 decimal
// digits, a space, "0x", 1–16 hex digits, a space, 'R' or 'W'. The digit
// limits keep both numbers inside their types without overflow checks;
// longer (zero-padded) numbers are legal but rare, and not ok here.
func parseSaved(b []byte) (rec Record, ok bool) {
	i := 0
	var at int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		at = at*10 + int64(b[i]-'0')
	}
	if i == 0 || i > 18 || len(b) < i+6 || b[i] != ' ' || b[i+1] != '0' || b[i+2] != 'x' {
		return rec, false
	}
	i += 3
	start := i
	var addr uint64
	for ; i < len(b) && hexVal[b[i]] != 0xff; i++ {
		addr = addr<<4 | uint64(hexVal[b[i]])
	}
	if i == start || i-start > 16 || len(b) != i+2 || b[i] != ' ' {
		return rec, false
	}
	switch b[i+1] {
	case 'R':
	case 'W':
		rec.Write = true
	default:
		return rec, false
	}
	rec.At, rec.Addr = sim.Time(at), addr
	return rec, true
}

// lineGeneral is the format's definition: whitespace-separated fields as
// bytes.Fields cuts them, numbers as strconv reads them, checked in field
// order.
func (p *parser) lineGeneral(b []byte) error {
	fields := bytes.Fields(b)
	if len(fields) == 0 {
		return nil
	}
	if fields[0][0] == '#' {
		if len(p.recs) == 0 && cap(p.recs) == 0 {
			p.reserveFor(b)
		}
		return nil
	}
	if len(fields) != 3 {
		return fmt.Errorf("want 3 fields, got %d", len(fields))
	}
	at, err := strconv.ParseInt(string(fields[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("bad time: %w", err)
	}
	if err := p.checkOrder(sim.Time(at)); err != nil {
		return err
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(string(fields[1]), "0x"), 16, 64)
	if err != nil {
		return fmt.Errorf("bad address: %w", err)
	}
	var write bool
	switch string(fields[2]) {
	case "R":
	case "W":
		write = true
	default:
		return fmt.Errorf("bad op %q", fields[2])
	}
	p.add(Record{At: sim.Time(at), Addr: addr, Write: write})
	return nil
}

// reserveFor sizes recs from a Save header ahead of the first record, as
// far as the input's size allows. Any other comment is ignored.
func (p *parser) reserveFor(comment []byte) {
	s, ok := strings.CutPrefix(string(bytes.TrimSpace(comment)), headerPrefix)
	if !ok {
		return
	}
	if s, ok = strings.CutSuffix(s, headerSuffix); !ok {
		return
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return
	}
	if n > uint64(p.reserve) {
		n = uint64(p.reserve)
	}
	if n > 0 {
		p.recs = make([]Record, 0, n)
	}
}
