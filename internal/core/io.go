package core

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// The release format's fixed lines.
const (
	labelPrefix = "# label:"
	bwPrefix    = "# theoretical_bw_gbs:"
	csvHeader   = "read_ratio,bw_gbs,latency_ns\n"
	headerField = "read_ratio"

	// csvRowBytes sizes WriteCSV's buffer: a row of three four-decimal
	// numbers under 1000 ("0.5147,11.5058,121.0700\n") takes 24 bytes.
	csvRowBytes = 32
)

// WriteCSV serializes the family in the release format of the Mess
// measurement data: a header comment with the label and theoretical
// bandwidth, then one row per point, every number with four decimals:
//
//	# label: Intel Skylake (scaled)
//	# theoretical_bw_gbs: 63.9787
//	read_ratio,bw_gbs,latency_ns
//	0.5147,0.7040,90.3500
//	0.5147,4.3200,99.3420
//	...
//
// The whole file is appended to one buffer, sized from the point count, and
// goes to w in one Write.
func (f *Family) WriteCSV(w io.Writer) error {
	n := 0
	for i := range f.Curves {
		n += len(f.Curves[i].Points)
	}
	buf := make([]byte, 0, len(labelPrefix)+len(f.Label)+len(bwPrefix)+len(csvHeader)+csvRowBytes*(n+1))
	buf = append(buf, labelPrefix+" "...)
	buf = append(buf, f.Label...)
	buf = append(buf, "\n"+bwPrefix+" "...)
	buf = appendFixed4(buf, f.TheoreticalBW)
	buf = append(buf, "\n"+csvHeader...)
	for _, c := range f.Curves {
		for _, p := range c.Points {
			buf = appendFixed4(buf, c.ReadRatio)
			buf = append(buf, ',')
			buf = appendFixed4(buf, p.BW)
			buf = append(buf, ',')
			buf = appendFixed4(buf, p.Latency)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendFixed4 appends v with four decimals, as fmt's %.4f prints it.
func appendFixed4(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'f', 4, 64)
}

// parseFinite is strconv.ParseFloat without the NaN and ±Inf spellings it
// accepts: no number of a curve file may be one.
func parseFinite(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil && !finite(v) {
		err = strconv.ErrRange
	}
	return v, err
}

// ReadCSV parses a family written by WriteCSV. Its input comes from disk
// caches and from the network: it rejects, with an error, anything that does
// not parse to a valid family, which WriteCSV can write back and ReadCSV read
// again.
//
// The grammar, line by line, each line trimmed of surrounding white space:
// "# label: L" and "# theoretical_bw_gbs: X" set the label and the
// theoretical bandwidth (the last of each wins), any other line starting
// with '#' and any blank line is a comment, and every other line is a row.
// The first row may be a header, whose first field is "read_ratio"; every
// row, the header too, is three comma-separated fields, and each field of a
// data row is a finite number with no white space around it. Fields are
// never quoted: a row holding a double quote is rejected.
func ReadCSV(r io.Reader) (*Family, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading curve CSV: %w", err)
	}
	f := &Family{}
	byRatio := map[float64]int{} // index into f.Curves
	row := 0                     // rows seen, the header included
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		line = bytes.TrimSpace(line)
		switch {
		case bytes.HasPrefix(line, []byte(labelPrefix)):
			f.Label = string(bytes.TrimSpace(line[len(labelPrefix):]))
		case bytes.HasPrefix(line, []byte(bwPrefix)):
			v, perr := parseFinite(bytes.TrimSpace(line[len(bwPrefix):]))
			if perr != nil {
				return nil, fmt.Errorf("core: bad theoretical bandwidth header %q", line)
			}
			f.TheoreticalBW = v
		case len(line) == 0 || line[0] == '#':
			// skip
		default:
			if bytes.IndexByte(line, '"') >= 0 {
				return nil, fmt.Errorf("core: CSV row %d is quoted: %q", row, line)
			}
			rec0, rest, ok1 := bytes.Cut(line, []byte{','})
			rec1, rec2, ok2 := bytes.Cut(rest, []byte{','})
			if !ok1 || !ok2 || bytes.IndexByte(rec2, ',') >= 0 {
				return nil, fmt.Errorf("core: CSV row %d has %d fields, want 3", row, bytes.Count(line, []byte{','})+1)
			}
			i := row
			row++
			if i == 0 && string(rec0) == headerField {
				continue
			}
			ratio, err1 := parseFinite(rec0)
			bwv, err2 := parseFinite(rec1)
			lat, err3 := parseFinite(rec2)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("core: CSV row %d unparsable: %q", i, line)
			}
			c, ok := byRatio[ratio]
			if !ok {
				c = len(f.Curves)
				byRatio[ratio] = c
				f.Curves = append(f.Curves, Curve{ReadRatio: ratio})
			}
			f.Curves[c].Points = append(f.Curves[c].Points, Point{BW: bwv, Latency: lat})
		}
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
