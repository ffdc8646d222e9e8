package core

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serializes the family in the release format of the Mess
// measurement data: a header comment with the label and theoretical
// bandwidth, then one row per point:
//
//	# label: Intel Skylake
//	# theoretical_bw_gbs: 128.0
//	read_ratio,bw_gbs,latency_ns
//	1.00,1.2,89.1
//	...
func (f *Family) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# label: %s\n", f.Label)
	fmt.Fprintf(bw, "# theoretical_bw_gbs: %.4f\n", f.TheoreticalBW)
	fmt.Fprintln(bw, "read_ratio,bw_gbs,latency_ns")
	for _, c := range f.Curves {
		for _, p := range c.Points {
			fmt.Fprintf(bw, "%.4f,%.4f,%.4f\n", c.ReadRatio, p.BW, p.Latency)
		}
	}
	return bw.Flush()
}

// parseFinite is strconv.ParseFloat without the NaN and ±Inf spellings it
// accepts: no number of a curve file may be one.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !finite(v) {
		err = strconv.ErrRange
	}
	return v, err
}

// ReadCSV parses a family written by WriteCSV. Its input comes from disk
// caches and from the network: it rejects, with an error, anything that does
// not parse to a valid family, which WriteCSV can write back and ReadCSV read
// again.
func ReadCSV(r io.Reader) (*Family, error) {
	f := &Family{}
	br := bufio.NewReader(r)
	var dataLines strings.Builder
	for {
		line, err := br.ReadString('\n')
		done := err == io.EOF
		if err != nil && !done {
			return nil, fmt.Errorf("core: reading curve CSV: %w", err)
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "# label:"):
			f.Label = strings.TrimSpace(strings.TrimPrefix(trimmed, "# label:"))
		case strings.HasPrefix(trimmed, "# theoretical_bw_gbs:"):
			v, perr := parseFinite(strings.TrimSpace(strings.TrimPrefix(trimmed, "# theoretical_bw_gbs:")))
			if perr != nil {
				return nil, fmt.Errorf("core: bad theoretical bandwidth header %q", trimmed)
			}
			f.TheoreticalBW = v
		case trimmed == "" || strings.HasPrefix(trimmed, "#"):
			// skip
		default:
			dataLines.WriteString(trimmed)
			dataLines.WriteByte('\n')
		}
		if done {
			break
		}
	}
	cr := csv.NewReader(strings.NewReader(dataLines.String()))
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("core: parsing curve CSV: %w", err)
	}
	byRatio := map[float64]*Curve{}
	var order []float64
	for i, rec := range records {
		if i == 0 && rec[0] == "read_ratio" {
			continue
		}
		if len(rec) != 3 {
			return nil, fmt.Errorf("core: CSV row %d has %d fields, want 3", i, len(rec))
		}
		ratio, err1 := parseFinite(rec[0])
		bwv, err2 := parseFinite(rec[1])
		lat, err3 := parseFinite(rec[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("core: CSV row %d unparsable: %v", i, rec)
		}
		c, ok := byRatio[ratio]
		if !ok {
			c = &Curve{ReadRatio: ratio}
			byRatio[ratio] = c
			order = append(order, ratio)
		}
		c.Points = append(c.Points, Point{BW: bwv, Latency: lat})
	}
	for _, ratio := range order {
		f.Curves = append(f.Curves, *byRatio[ratio])
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
