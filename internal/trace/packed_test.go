package trace

import (
	"bytes"
	"math"
	"testing"

	"github.com/mess-sim/mess/internal/sim"
)

// FuzzPacked holds the packed form to a plain []Record. The input drives a
// sequence of up to 65,535 records, long enough to cross mark and block
// boundaries: each step's byte picks how the timestamp moves (not at all,
// a little, by jumps that overflow, backwards, to either extreme), how the
// address moves (not at all, a line either way, across zero and the top,
// anywhere) and whether the record writes. The records go through
// Capture's recording path into a *Trace and into a *Packed under the same
// limit. The packed form must hold the same records — read from the start,
// and from every mark and the records either side of it — fill its blocks
// without growing them, and Save the same bytes.
func FuzzPacked(f *testing.F) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0x09, 0x01, 0x49, 0x11, 0x00}, uint16(3*markEvery+7), uint16(0))        // steps, bursts and line strides
	f.Add(every, uint16(20000), uint16(0))                                               // every move, past several blocks
	f.Add([]byte{0x1b, 0x23, 0x63, 0x1e, 0x26}, uint16(math.MaxUint16), uint16(0))       // the longest records
	f.Add([]byte{0x0c, 0x14, 0x2d, 0x35, 0x3e, 0x06}, uint16(1000), uint16(markEvery+1)) // backwards and extremes, under a limit
	f.Fuzz(func(t *testing.T, steps []byte, n, limit uint16) {
		if len(steps) == 0 {
			steps = []byte{0}
		}
		ref := &Capture{Limit: int(limit)}
		ref.to = &ref.T
		pk := &Packed{}
		packed := &Capture{Limit: int(limit), to: pk}
		var r Record
		for i := 0; i < int(n); i++ {
			b := steps[i%len(steps)]
			k := uint64(i+1) * 0x9e3779b97f4a7c15
			switch b & 7 {
			case 0: // the same instant
			case 1:
				r.At += sim.Time(b >> 3)
			case 2:
				r.At += sim.Time(k >> 40)
			case 3:
				r.At += 1 << 62 // overflows every fourth time
			case 4:
				r.At -= sim.Time(k>>50) + 1
			case 5:
				r.At = math.MaxInt64
			case 6:
				r.At = math.MinInt64
			case 7:
				r.At += sim.Time(k >> 1)
			}
			switch b >> 3 & 7 {
			case 0: // the same address
			case 1:
				r.Addr += 64
			case 2:
				r.Addr -= 64 // wraps below zero
			case 3:
				r.Addr = k
			case 4:
				r.Addr = math.MaxUint64 - k>>60
			case 5:
				r.Addr ^= 1 << 63
			case 6:
				r.Addr += k >> 20
			case 7:
				r.Addr = 0
			}
			r.Write = b&0x40 != 0
			ref.record(r)
			packed.record(r)
		}

		want := ref.T.Records
		if pk.Len() != len(want) {
			t.Fatalf("packed holds %d records, the trace %d", pk.Len(), len(want))
		}
		for i, got := range records(pk) {
			if got != want[i] {
				t.Fatalf("record %d of %d: packed %+v, want %+v", i, len(want), got, want[i])
			}
		}
		for m := 0; m*markEvery <= len(want); m++ {
			for _, from := range []int{m*markEvery - 1, m * markEvery, m*markEvery + 1} {
				if from < 0 || from >= len(want) {
					continue
				}
				c := pk.cursor(from)
				for i := from; i < min(len(want), from+markEvery+1); i++ {
					if got := c.next(); got != want[i] {
						t.Fatalf("from %d: record %d of %d: packed %+v, want %+v", from, i, len(want), got, want[i])
					}
				}
			}
		}
		for i, blk := range pk.blocks {
			if cap(blk) != blockBytes {
				t.Fatalf("block %d of %d holds %d bytes, want %d", i, len(pk.blocks), cap(blk), blockBytes)
			}
		}

		var a, b bytes.Buffer
		if err := ref.T.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := pk.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("packed Save wrote %d bytes, the trace's Save %d, and they differ", b.Len(), a.Len())
		}
	})
}
