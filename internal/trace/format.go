package trace

import (
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
	// readChunk is the size of Read's buffer, which only a longer line grows.
	readChunk = 64 << 10
	// minLineBytes is the shortest line that holds a record ("0 0 R\n"):
	// an input of n bytes cannot hold more than n/minLineBytes records.
	minLineBytes = 6
	// sizelessReserve caps the reservation a header can ask for when the
	// reader cannot say how much input it holds.
	sizelessReserve = 1 << 16

	saveChunk = 32 << 10
)

// Save serializes the trace in the release text format.
func (t *Trace) Save(w io.Writer) error { return save(w, t) }

// save writes src in the release text format.
func save(w io.Writer, src Source) error {
	// Records are appended to one buffer that goes to w whenever it passes
	// saveChunk; the slack keeps a whole line inside the first allocation.
	n := src.Len()
	buf := make([]byte, 0, saveChunk+64)
	buf = append(buf, headerPrefix...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, headerSuffix...)
	buf = append(buf, '\n')
	recs := src.cursor(0)
	for i := 0; i < n; i++ {
		r := recs.next()
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
// The input is streamed through a readChunk buffer that grows only for a
// line longer than it, and each record line of the form Save writes is
// parsed in one pass from the buffer. Records is sized once from the
// header's count when there is one. The header is only a hint from an
// untrusted file: the reservation never exceeds what the input can hold
// (its size, for readers that report one through Stat or Len, over the
// shortest possible line; sizelessReserve records otherwise), and a trace
// holding more records than announced still reads in full.
func Read(r io.Reader) (*Trace, error) {
	p := parser{reserve: maxRecords(r)}
	buf := make([]byte, readChunk)
	start, end := 0, 0 // buf[start:end] holds the input not yet parsed
	for lineNo, stalls := 1, 0; ; {
		n, rerr := r.Read(buf[end:])
		if n == 0 && rerr == nil {
			if stalls++; stalls == 100 { // where bufio gives up on a reader too
				return nil, fmt.Errorf("trace: %w", io.ErrNoProgress)
			}
			continue
		}
		stalls = 0
		end += n
		if rerr == io.EOF && end > start && buf[end-1] != '\n' {
			buf = append(buf[:end], '\n') // the last line, terminated like any other
			end++
		}
		for start < end {
			rec, k := parseSaved(buf[start:end])
			if k > 0 {
				if err := p.checkOrder(rec.At); err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
				}
				p.add(rec)
			} else {
				// Anything but the exact bytes Save writes for a record —
				// comments, extra or non-ASCII whitespace, signs, a
				// malformed field — takes the general path, which decides
				// with strconv itself.
				if k = bytes.IndexByte(buf[start:end], '\n'); k < 0 {
					break // the line goes on in the next read
				}
				if k > maxLineBytes {
					return nil, fmt.Errorf("trace: line %d: longer than %d bytes", lineNo, maxLineBytes)
				}
				if err := p.lineGeneral(buf[start : start+k]); err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
				}
				k++
			}
			start += k
			lineNo++
		}
		if rerr == io.EOF {
			return &Trace{Records: p.recs}, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("trace: %w", rerr)
		}
		// Move the unfinished line to the front; one that fills the buffer
		// doubles it, up to the longest line Read accepts.
		end, start = copy(buf, buf[start:end]), 0
		if end == len(buf) {
			if end > maxLineBytes {
				return nil, fmt.Errorf("trace: line %d: longer than %d bytes", lineNo, maxLineBytes)
			}
			buf = append(buf, make([]byte, min(end, maxLineBytes+1-end))...)
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

// parseSaved parses the line at the start of b if it is exactly what Save
// writes for a record: 1–18 decimal digits, a space, "0x", 1–16 hex
// digits, a space, 'R' or 'W', '\n'. It reports the record and the bytes
// the line takes, or 0 for any other line and for one b cuts short. The
// digit limits keep both numbers inside their types without overflow
// checks; longer (zero-padded) numbers are legal but rare, and not parsed
// here.
func parseSaved(b []byte) (rec Record, n int) {
	i := 0
	var at int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		at = at*10 + int64(b[i]-'0')
	}
	if i == 0 || i > 18 || len(b) < i+7 || b[i] != ' ' || b[i+1] != '0' || b[i+2] != 'x' {
		return rec, 0
	}
	i += 3
	start := i
	var addr uint64
	for ; i < len(b) && hexVal[b[i]] != 0xff; i++ {
		addr = addr<<4 | uint64(hexVal[b[i]])
	}
	if i == start || i-start > 16 || len(b) < i+3 || b[i] != ' ' || b[i+2] != '\n' {
		return rec, 0
	}
	switch b[i+1] {
	case 'R':
	case 'W':
		rec.Write = true
	default:
		return rec, 0
	}
	rec.At, rec.Addr = sim.Time(at), addr
	return rec, i + 3
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
