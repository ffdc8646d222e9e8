package core

import (
	"bytes"
	"testing"
)

// FuzzReadCSV holds the curve parser to what its callers — the disk cache,
// the curve server's PUT handler and the client — rely on for bytes they do
// not control: it never panics, what it accepts is a valid family, and that
// family survives the release format — WriteCSV → ReadCSV → WriteCSV is a
// fixpoint, so an accepted upload can be stored and served again.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := fam.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid family: %v", err)
		}
		var first, second bytes.Buffer
		if err := fam.WriteCSV(&first); err != nil {
			t.Fatal(err)
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
