package core

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV holds the curve parser to what its callers — the disk cache,
// the curve server's PUT handler and the client — rely on for bytes they do
// not control: it never panics, what it accepts is a valid family, and that
// family survives the release format — WriteCSV → ReadCSV → WriteCSV is a
// fixpoint, so an accepted upload can be stored and served again.
//
// It is also differential against the codec ReadCSV and WriteCSV replaced
// (readCSVReference and writeCSVReference below): on every input without a
// double quote both parsers accept or both reject, and they return equal
// families; on every accepted family both writers write the same bytes. A
// quoted field, which the reference's encoding/csv accepted, is the one
// declared difference: ReadCSV rejects it.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, err := ReadCSV(bytes.NewReader(data))
		if !bytes.Contains(data, []byte{'"'}) {
			ref, refErr := readCSVReference(bytes.NewReader(data))
			if (err == nil) != (refErr == nil) {
				t.Fatalf("ReadCSV error %v, reference error %v", err, refErr)
			}
			if err == nil && !reflect.DeepEqual(fam, ref) {
				t.Fatalf("ReadCSV returned %+v, reference %+v", fam, ref)
			}
		}
		if err != nil {
			return
		}
		if err := fam.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid family: %v", err)
		}
		var first, second, want bytes.Buffer
		if err := fam.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVReference(fam, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote\n%s\nthe reference writer\n%s", first.String(), want.String())
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV rejects what WriteCSV wrote: %v\n%s", err, first.String())
		}
		if err := again.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV → ReadCSV → WriteCSV is not a fixpoint:\n%s\nthen\n%s", first.String(), second.String())
		}
	})
}

// WriteCSV must write what the fmt-based writer wrote for any family, not
// only a valid one: the non-finite numbers and signed zeros are where
// strconv's and fmt's spellings could part.
func TestWriteCSVMatchesReference(t *testing.T) {
	for _, fam := range []*Family{
		{},
		NewSynthetic(SyntheticSpec{Label: "Intel Skylake", PeakGBs: 128}),
		{Label: "edge — ünïcode", TheoreticalBW: math.Inf(1), Curves: []Curve{
			{ReadRatio: math.Copysign(0, -1), Points: []Point{{BW: math.NaN(), Latency: math.Inf(-1)}, {BW: -0.00001, Latency: 1e300}}},
			{ReadRatio: 0.99995, Points: []Point{{BW: 123456789.12345, Latency: 5e-5}}},
		}},
	} {
		var got, want bytes.Buffer
		if err := fam.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVReference(fam, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WriteCSV wrote\n%s\nthe reference writer\n%s", got.String(), want.String())
		}
	}
}

// writeCSVReference is WriteCSV as it was before it appended into one
// buffer: fmt through a bufio.Writer.
func writeCSVReference(f *Family, w io.Writer) error {
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

// parseFiniteReference is the string form of parseFinite the reference
// parser called.
func parseFiniteReference(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !finite(v) {
		err = strconv.ErrRange
	}
	return v, err
}

// readCSVReference is ReadCSV as it was before it parsed in one pass: lines
// through a bufio.Reader, the data rows gathered in a strings.Builder and
// split by encoding/csv.
func readCSVReference(r io.Reader) (*Family, error) {
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
			v, perr := parseFiniteReference(strings.TrimSpace(strings.TrimPrefix(trimmed, "# theoretical_bw_gbs:")))
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
		ratio, err1 := parseFiniteReference(rec[0])
		bwv, err2 := parseFiniteReference(rec[1])
		lat, err3 := parseFiniteReference(rec[2])
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
