package exp

import (
	"context"
	"runtime"
	"testing"

	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/trace"
)

// TestFig6sCaptureFootprint holds fig6s's longest Quick capture, at pace 2
// ns, to at most 8 bytes a record: the heap it holds once CapturePoint has
// returned and the simulated machine is garbage. Held as []Record, the same
// capture takes 24 bytes a record and append's growth slack on top.
func TestFig6sCaptureFootprint(t *testing.T) {
	spec := scaleSpec(platform.ZSimSkylake(), Quick)
	heap := func() int64 {
		// The second cycle frees what the first left in sync.Pool victims.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	tr, _, err := trace.CapturePoint(context.Background(), spec, sampledOptions(Quick), sampledMix, 2, captureLimit)
	if err != nil {
		t.Fatal(err)
	}
	held := heap() - before
	n := tr.Len()
	runtime.KeepAlive(tr)
	if n < 100_000 {
		t.Fatalf("the capture holds %d records: too few to price a record", n)
	}
	if perRecord := float64(held) / float64(n); perRecord > 8 {
		t.Errorf("the capture of %d records holds %d bytes, %.2f a record: over 8", n, held, perRecord)
	}
	t.Logf("%d records in %d bytes, %.2f a record", n, held, float64(held)/float64(n))
}
