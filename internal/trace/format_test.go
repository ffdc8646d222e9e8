package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mess-sim/mess/internal/sim"
)

func TestSaveReadRoundTrip(t *testing.T) {
	tr := sampleTrace(200)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Records, tr.Records) {
		t.Fatalf("round trip changed the records: %d read, %d saved", len(got.Records), len(tr.Records))
	}
}

// TestSaveGolden pins the release format byte for byte, header included:
// decimal picoseconds, 0x-prefixed lower-case hex without padding, R or W.
func TestSaveGolden(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Addr: 0},
		{At: 0, Addr: 0x40, Write: true},
		{At: 1400, Addr: 0xdeadbeef00},
		{At: 1400, Addr: 0xABCDEF, Write: true},
		{At: math.MaxInt64, Addr: math.MaxUint64},
	}}
	const want = "# mess trace: 5 records\n" +
		"0 0x0 R\n" +
		"0 0x40 W\n" +
		"1400 0xdeadbeef00 R\n" +
		"1400 0xabcdef W\n" +
		"9223372036854775807 0xffffffffffffffff R\n"
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("Save wrote\n%q\nwant\n%q", buf.String(), want)
	}
	var empty bytes.Buffer
	if err := (&Trace{}).Save(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "# mess trace: 0 records\n" {
		t.Fatalf("empty trace saved as %q", empty.String())
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSaveReportsWriteErrors covers both places Save writes: a chunk in
// the middle of a long trace, and the final partial chunk.
func TestSaveReportsWriteErrors(t *testing.T) {
	long := sampleTrace(3 * saveChunk / 10) // several chunks
	for _, room := range []int{0, saveChunk + 1} {
		if err := long.Save(&failAfter{n: room}); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d bytes: Save returned %v", room, err)
		}
	}
	if err := sampleTrace(3).Save(&failAfter{}); !errors.Is(err, errDiskFull) {
		t.Errorf("short trace, failing writer: Save returned %v", err)
	}
}

// TestSaveReadProperty round-trips randomized traces through the text
// format, with comment and blank lines injected between records (the
// format allows both) — the parsed records must come back exactly, in
// order, regardless.
func TestSaveReadProperty(t *testing.T) {
	prop := func(gaps []uint16, addrs []uint16, noise []bool) bool {
		n := len(gaps)
		if len(addrs) < n {
			n = len(addrs)
		}
		tr := &Trace{}
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			at += sim.Time(gaps[i]) // non-decreasing by construction
			tr.Records = append(tr.Records, Record{
				At:    at,
				Addr:  uint64(addrs[i]) * 64,
				Write: gaps[i]%2 == 0,
			})
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			return false
		}
		// Inject comments and blank lines between records: the format
		// must skip them without disturbing the record stream.
		var noisy bytes.Buffer
		for i, line := range strings.SplitAfter(buf.String(), "\n") {
			if i < len(noise) && noise[i] {
				noisy.WriteString("# injected comment\n\n   \n")
			}
			noisy.WriteString(line)
		}
		got, err := Read(&noisy)
		return err == nil && slices.Equal(got.Records, tr.Records)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadErrors pins every way Read rejects an input: the message and the
// line it names.
func TestReadErrors(t *testing.T) {
	long := strings.Repeat("7", maxLineBytes+1)
	for _, tc := range []struct {
		name, in, want string
	}{
		{"too many fields", "# h\n1 0x2 R 4\n", "trace: line 2: want 3 fields, got 4"},
		{"too few fields", "1 0x40 R\n\n2 0x80\n", "trace: line 3: want 3 fields, got 2"},
		{"bad time", "abc 0x40 R\n", `trace: line 1: bad time: strconv.ParseInt: parsing "abc": invalid syntax`},
		{"time out of range", "1 0x0 R\n9223372036854775808 0x40 R\n",
			`trace: line 2: bad time: strconv.ParseInt: parsing "9223372036854775808": value out of range`},
		{"bad address", "10 0x40 R\n10 zz R\n", `trace: line 2: bad address: strconv.ParseUint: parsing "zz": invalid syntax`},
		{"upper-case prefix", "10 0X40 R\n", `trace: line 1: bad address: strconv.ParseUint: parsing "0X40": invalid syntax`},
		{"address out of range", "10 0x10000000000000000 R\n",
			`trace: line 1: bad address: strconv.ParseUint: parsing "10000000000000000": value out of range`},
		{"bad op", "10 0x40 R\n11 0x40 X\n", `trace: line 2: bad op "X"`},
		{"lower-case op", "10 0x40 r\n", `trace: line 1: bad op "r"`},
		{"non-monotonic", "# header\n10 0x40 R\n20 0x80 W\n\n15 0xc0 R\n",
			"trace: line 5: non-monotonic timestamp 15 (previous record at 20)"},
		{"non-monotonic, spaced out", "10 0x40 R\n\t5  0x80 W\n",
			"trace: line 2: non-monotonic timestamp 5 (previous record at 10)"},
		{"over-long line", "10 0x40 R\n" + long + " 0x40 R\n20 0x80 R\n",
			fmt.Sprintf("trace: line 2: longer than %d bytes", maxLineBytes)},
		{"over-long last line", "10 0x40 R\n# " + long, fmt.Sprintf("trace: line 2: longer than %d bytes", maxLineBytes)},
		{"first fault wins", "10 0x40 R\n5 zz X\n", "trace: line 2: non-monotonic timestamp 5 (previous record at 10)"},
	} {
		tr, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted, %d records", tc.name, len(tr.Records))
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, err, tc.want)
		}
	}

	// The longest legal line is one byte shorter, with or without its
	// terminator, and through a caller's own larger bufio.Reader the limit
	// is the same.
	pad := strings.Repeat(" ", maxLineBytes-len("10 0x40 R"))
	for _, in := range []string{"10 0x40 R" + pad + "\n", "10 0x40 R" + pad} {
		if tr, err := Read(strings.NewReader(in)); err != nil || len(tr.Records) != 1 {
			t.Errorf("line of %d bytes rejected: %v", maxLineBytes, err)
		}
	}
	_, err := Read(bufio.NewReaderSize(strings.NewReader("10 0x40 R \n"+pad+" 20 0x40 R\n"), 4<<20))
	if want := fmt.Sprintf("trace: line 2: longer than %d bytes", maxLineBytes); err == nil || err.Error() != want {
		t.Errorf("over-long line through a 4 MiB bufio.Reader: got %v, want %s", err, want)
	}

	// Equal timestamps are fine (several records can arrive in one cycle).
	if _, err := Read(strings.NewReader("10 0x40 R\n10 0x80 W\n")); err != nil {
		t.Fatalf("equal timestamps rejected: %v", err)
	}
}

// errReader fails once its data is spent.
type errReader struct {
	data string
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadReportsReaderErrors(t *testing.T) {
	_, err := Read(&errReader{data: "10 0x40 R\n20 0x8", err: errDiskFull})
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "trace: ") {
		t.Fatalf("Read over a failing reader returned %v", err)
	}
}

// onlyReader hides every method of its reader but Read: an input of
// unknown size.
type onlyReader struct{ io.Reader }

// TestReadHeaderReservation: the header's count sizes Records once, and a
// header that lies cannot make Read reserve more than the input could
// possibly hold.
func TestReadHeaderReservation(t *testing.T) {
	tr := sampleTrace(5000)
	var saved bytes.Buffer
	if err := tr.Save(&saved); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(file, saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{
		"file":          f,
		"bytes.Reader":  bytes.NewReader(saved.Bytes()),
		"strings":       strings.NewReader(saved.String()),
		"bytes.Buffer":  bytes.NewBuffer(saved.Bytes()),
		"size-less":     onlyReader{bytes.NewReader(saved.Bytes())},
		"bufio, no Len": bufio.NewReader(bytes.NewReader(saved.Bytes())),
	} {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Records, tr.Records) {
			t.Fatalf("%s: records differ", name)
		}
		if cap(got.Records) != len(tr.Records) {
			t.Errorf("%s: cap(Records) = %d, want the header's %d exactly (sized once)", name, cap(got.Records), len(tr.Records))
		}
	}

	const hostile = "# mess trace: 9999999999999 records\n1 0x1 R\n" // 40 bytes
	got, err := Read(strings.NewReader(hostile))
	if err != nil || len(got.Records) != 1 {
		t.Fatalf("hostile header: %v, %d records", err, len(got.Records))
	}
	if limit := len(hostile) / minLineBytes; cap(got.Records) > limit {
		t.Errorf("sized reader: cap(Records) = %d for a %d-byte input, bound is %d", cap(got.Records), len(hostile), limit)
	}
	got, err = Read(onlyReader{strings.NewReader(hostile)})
	if err != nil || len(got.Records) != 1 {
		t.Fatalf("hostile header, size-less reader: %v", err)
	}
	if cap(got.Records) > sizelessReserve {
		t.Errorf("size-less reader: cap(Records) = %d, bound is %d", cap(got.Records), sizelessReserve)
	}

	// An understated header costs growth, not records; a header after the
	// first record is an ordinary comment.
	got, err = Read(strings.NewReader("# mess trace: 1 records\n1 0x1 R\n2 0x2 R\n3 0x3 W\n# mess trace: 50 records\n4 0x4 R\n"))
	if err != nil || len(got.Records) != 4 {
		t.Fatalf("understated header: %v, %d records", err, len(got.Records))
	}
	if cap(got.Records) >= 50 {
		t.Errorf("a header after the first record reserved: cap(Records) = %d", cap(got.Records))
	}
}

// readReference is the parser Read replaced — bufio.Scanner lines,
// strings.Fields, strconv — kept as the definition of the format that
// FuzzRead holds the streaming parser to. It returns the line an error
// names (0 for none).
func readReference(r io.Reader) (*Trace, int, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var prevAt sim.Time
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, lineNo, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, lineNo, fmt.Errorf("trace: line %d: bad time: %w", lineNo, err)
		}
		if len(t.Records) > 0 && sim.Time(at) < prevAt {
			return nil, lineNo, fmt.Errorf("trace: line %d: non-monotonic timestamp %d (previous record at %d)",
				lineNo, at, int64(prevAt))
		}
		prevAt = sim.Time(at)
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			return nil, lineNo, fmt.Errorf("trace: line %d: bad address: %w", lineNo, err)
		}
		var write bool
		switch fields[2] {
		case "R":
		case "W":
			write = true
		default:
			return nil, lineNo, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[2])
		}
		t.Records = append(t.Records, Record{At: sim.Time(at), Addr: addr, Write: write})
	}
	if err := sc.Err(); err != nil {
		// The Scanner gives up on the line after the last one it delivered.
		return nil, lineNo + 1, fmt.Errorf("trace: line %d: longer than %d bytes", lineNo+1, maxLineBytes)
	}
	return t, 0, nil
}

// FuzzRead holds Read to the reference parser on arbitrary bytes: both
// accept or both reject, with equal records or the same message naming the
// same line. What Read accepts, Save writes back in a form that reads and
// saves to itself. And no header makes Read reserve beyond its bound,
// through a reader that reports its size or one that does not. The seed
// corpus is testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantLine, wantErr := readReference(bytes.NewReader(data))
		got, err := Read(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Read: %v\nreference: %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("errors differ (reference names line %d):\n got %s\nwant %s", wantLine, err, wantErr)
			}
			return
		}
		if !slices.Equal(got.Records, want.Records) {
			t.Fatalf("records differ:\n got %+v\nwant %+v", got.Records, want.Records)
		}

		// Growth past a missing or understated header may double; a
		// reservation may not exceed the input's bound.
		grown := 2*len(got.Records) + 8
		if limit := len(data) / minLineBytes; cap(got.Records) > limit && cap(got.Records) > grown {
			t.Fatalf("cap(Records) = %d for %d records in %d bytes", cap(got.Records), len(got.Records), len(data))
		}
		sizeless, err := Read(onlyReader{bytes.NewReader(data)})
		if err != nil || !slices.Equal(sizeless.Records, want.Records) {
			t.Fatalf("size-less reader: %v, %d records, want %d", err, len(sizeless.Records), len(want.Records))
		}
		if cap(sizeless.Records) > sizelessReserve && cap(sizeless.Records) > grown {
			t.Fatalf("size-less reader: cap(Records) = %d for %d records", cap(sizeless.Records), len(sizeless.Records))
		}

		var first, second bytes.Buffer
		if err := got.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects what Save wrote: %v\n%s", err, first.String())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.Records, got.Records) || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Read → Save is not a fixpoint:\n%s\nthen\n%s", first.String(), second.String())
		}
	})
}
