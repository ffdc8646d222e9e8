package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// phaseTrace builds a synthetic phase-switching trace: the program cycles
// through distinct memory behaviours (sequential streaming reads, random
// read/write mixes, sparse pointer-chase-like access), each lasting many
// windows — the workload shape the access-vector clustering is built to
// exploit.
func phaseTrace(records int) *Trace {
	tr := &Trace{}
	rng := splitmix64(42)
	at := sim.Time(0)
	var seqAddr uint64
	for i := 0; i < records; i++ {
		phase := (i / 2000) % 3
		var rec Record
		switch phase {
		case 0: // streaming: sequential reads, steady fast pacing
			seqAddr += 64
			rec = Record{At: at, Addr: seqAddr}
			at += 3 * sim.Nanosecond
		case 1: // random mix: scattered lines, writes, near-saturation pace
			// (captured traces come from closed-loop runs, so arrival rates
			// stay near — not past — what the backend sustains; open-loop
			// oversaturation has no steady state to sample)
			rec = Record{
				At:    at,
				Addr:  (rng.next() % (1 << 22)) * 64,
				Write: rng.next()%3 == 0,
			}
			at += 7 * sim.Nanosecond
		default: // sparse: far strides, slow pacing, read-only
			rec = Record{At: at, Addr: (rng.next() % (1 << 26)) * 64}
			at += 20 * sim.Nanosecond
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

func ddr4Factory() (mem.BackendFactory, dram.Mapper) {
	cfg := dram.DDR4(3200, 2, 2)
	return func(eng *sim.Engine) mem.Backend { return dram.New(eng, cfg) }, dram.NewMapper(&cfg)
}

// TestSampledFidelity pins the headline contract: on a phase-switching
// trace, the sampled estimate lands within a few percent of the full
// replay on both bandwidth and latency, inside the reported error bars,
// while replaying a small fraction of the records. The same records packed
// give the same results, to the bit.
func TestSampledFidelity(t *testing.T) {
	tr := phaseTrace(48000)
	pk := pack(tr.Records)
	mk, mapper := ddr4Factory()

	eng := sim.New()
	full := Replay(eng, mk(eng), tr)
	eng = sim.New()
	if packed := Replay(eng, mk(eng), pk); packed != full {
		t.Fatalf("full replay of the packed trace %+v, of the trace %+v", packed, full)
	}

	// The explicit 2 µs span matches how production captures sample (fig6s,
	// messperf): enough latencies per window for queue steady state, many
	// windows per phase so the clusters keep the speedup high.
	cfg := SampleConfig{Span: 2 * sim.Microsecond, BankRow: mapper.BankRow}
	res, err := Sampled(mk, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Sampled(mk, pk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, packed) {
		t.Fatalf("sampled replay of the packed trace differs:\ntrace  %+v\npacked %+v", res, packed)
	}
	if d := res.DivergencePct(full); d > 5 {
		t.Fatalf("sampled estimate diverges %.2f%% from full replay\nfull    %+v\nsampled %+v",
			d, full, res.Estimate)
	}
	// The full replay lands inside the error bars, with 3% of the full value
	// as slack for the reconstruction's own bias terms.
	const slack = 0.03
	bwOK := math.Abs(res.Estimate.BWGBs-full.BWGBs) <= res.BWErrGBs+slack*full.BWGBs
	latOK := math.Abs(res.Estimate.ReadLatNs-full.ReadLatNs) <= res.LatErrNs+slack*full.ReadLatNs
	if !bwOK || !latOK {
		t.Errorf("full replay outside error bars:\nfull    %+v\nsampled %+v ± (%.3f GB/s, %.2f ns)",
			full, res.Estimate, res.BWErrGBs, res.LatErrNs)
	}
	if res.SpeedupX < 5 {
		t.Errorf("speedup %.1fx < 5x (replayed %d of %d records)",
			res.SpeedupX, res.ReplayedRecords, res.TotalRecords)
	}
	if res.Estimate.Reads == 0 || res.Estimate.ReadRatio != full.ReadRatio {
		t.Errorf("estimate bookkeeping wrong: %+v", res.Estimate)
	}
}

// TestSampledDeterministic pins the reproducibility contract: same trace,
// same config → byte-identical result, run to run — clustering, window
// selection and all estimates included — and whichever form holds the
// records.
func TestSampledDeterministic(t *testing.T) {
	tr := phaseTrace(12000)
	mk, mapper := ddr4Factory()
	cfg := SampleConfig{Span: 3 * sim.Microsecond, BankRow: mapper.BankRow}

	a, err := Sampled(mk, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{tr, pack(tr.Records)} {
		b, err := Sampled(mk, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sampled replay of a %T not deterministic:\nrun 1 %+v\nrun 2 %+v", src, a, b)
		}
	}
}

// TestSampledClustersSeparatePhases checks the clustering actually tells
// the synthetic phases apart: windows from the three phases must not all
// collapse into one cluster, and every non-empty window must be assigned.
func TestSampledClustersSeparatePhases(t *testing.T) {
	tr := phaseTrace(18000)
	mk, mapper := ddr4Factory()
	dur := tr.Records[len(tr.Records)-1].At - tr.Records[0].At
	res, err := Sampled(mk, tr, SampleConfig{Span: dur / 54, BankRow: mapper.BankRow})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, w := range res.Windows {
		if w.End > w.Start {
			if w.Cluster < 0 {
				t.Fatalf("non-empty window %d..%d unassigned", w.Start, w.End)
			}
			used[w.Cluster]++
		}
	}
	if len(used) < 2 {
		t.Fatalf("clustering collapsed %d phases into %d cluster(s)", 3, len(used))
	}
	var weight float64
	for i := range res.Clusters {
		weight += res.Clusters[i].Weight
	}
	if weight < 0.99 || weight > 1.01 {
		t.Fatalf("cluster weights sum to %.3f, want 1", weight)
	}
}

// TestSampledEdgeCases covers the degenerate inputs: empty traces, traces
// smaller than the window count, non-monotonic traces (rejected — the
// windowing math assumes time order) and a config without the platform's
// BankRow (rejected — there is no geometry-free fallback).
func TestSampledEdgeCases(t *testing.T) {
	mk, mapper := ddr4Factory()
	cfg := SampleConfig{BankRow: mapper.BankRow}

	res, err := Sampled(mk, &Trace{}, cfg)
	if err != nil || res.TotalRecords != 0 {
		t.Fatalf("empty trace: res %+v err %v", res, err)
	}

	tiny := sampleTrace(10)
	res, err = Sampled(mk, tiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.BWGBs <= 0 {
		t.Fatalf("tiny trace produced no estimate: %+v", res)
	}

	bad := &Trace{Records: []Record{
		{At: 100, Addr: 0x40}, {At: 50, Addr: 0x80},
	}}
	if _, err := Sampled(mk, bad, cfg); err == nil {
		t.Fatal("non-monotonic trace accepted")
	}

	if _, err := Sampled(mk, tiny, SampleConfig{}); err == nil {
		t.Fatal("config without BankRow accepted")
	}
}

// TestKMeansDeterministicAndComplete pins the clustering primitive: every
// point assigned, k centers produced, repeated runs identical.
func TestKMeansDeterministic(t *testing.T) {
	rng := splitmix64(7)
	vecs := make([][nFeat]float64, 100)
	for i := range vecs {
		for d := 0; d < nFeat; d++ {
			vecs[i][d] = rng.float()
		}
	}
	normalize(vecs)
	a1, c1 := kmeans(vecs, 5)
	a2, c2 := kmeans(vecs, 5)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("kmeans not deterministic")
	}
	if len(c1) != 5 {
		t.Fatalf("got %d centers, want 5", len(c1))
	}
	for i, a := range a1 {
		if a < 0 || a >= 5 {
			t.Fatalf("point %d assigned to cluster %d", i, a)
		}
	}
}

// fingerprintReference is the fingerprint the scratch tables replaced: a
// Go map for each window's open rows and another for its unique lines. It
// defines the counts fingerprint must reproduce.
func fingerprintReference(t *Trace, windows []SampleWindow, cfg SampleConfig) {
	for i := range windows {
		w := &windows[i]
		n := w.End - w.Start
		if n == 0 {
			continue
		}
		lastRow := map[int]int64{}
		lines := map[uint64]bool{}
		var hits, seq, near, far, reads, burst int
		var prevLine int64 = -1 << 62
		for ri := w.Start; ri < w.End; ri++ {
			rec := &t.Records[ri]
			line := int64(rec.Addr / mem.LineSize)
			if ri > w.Start {
				switch d := line - prevLine; {
				case d == 1:
					seq++
				case d > -64 && d < 64:
					near++
				default:
					far++
				}
				if rec.At == t.Records[ri-1].At {
					burst++
				}
			}
			prevLine = line
			if !rec.Write {
				reads++
			}
			bank, row := cfg.BankRow(rec.Addr)
			if r, ok := lastRow[bank]; ok && r == row {
				hits++
			}
			lastRow[bank] = row
			lines[rec.Addr/mem.LineSize] = true
		}
		w.Vec = AccessVector{
			RowHit:    float64(hits) / float64(n),
			ReadFrac:  float64(reads) / float64(n),
			Footprint: math.Log2(1 + float64(len(lines))),
		}
		if n > 1 {
			w.Vec.SeqFrac = float64(seq) / float64(n-1)
			w.Vec.NearFrac = float64(near) / float64(n-1)
			w.Vec.FarFrac = float64(far) / float64(n-1)
			w.Vec.Burst = float64(burst) / float64(n-1)
		}
		if spanUs := (w.To - w.From).Seconds() * 1e6; spanUs > 0 {
			w.Vec.Rate = math.Log2(1 + float64(n)/spanUs)
		}
	}
}

// TestFingerprintMatchesReference holds fingerprint's reused scratch tables
// to the map-based reference on randomized traces and window cuts: every
// window's vector must be equal, float for float. The bank mappings cover
// the real one and a hostile custom BankRow whose bank ids
// are negative, beyond the dense table, and far beyond it — with rows that
// repeat, so row hits happen on every path.
func TestFingerprintMatchesReference(t *testing.T) {
	cfg := dram.DDR4(3200, 2, 2)
	mapper := dram.NewMapper(&cfg)
	mappings := map[string]func(uint64) (int, int64){
		"ddr4": mapper.BankRow,
		"hostile": func(addr uint64) (int, int64) {
			row := int64(addr>>9) % 3
			switch bank := int(addr>>6) % 7; bank {
			case 0:
				return -1 - int(addr>>12)%3, row
			case 1:
				return denseBanks + int(addr>>12)%2, -row
			case 2:
				return math.MaxInt - int(addr>>12)%2, row
			case 3:
				return math.MinInt, row
			case 4:
				return denseBanks - 1, row
			default:
				return bank * 1000, row // makes the dense table grow in steps
			}
		},
	}
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 12; round++ {
		// A pool of lines small enough that windows revisit them.
		pool := make([]uint64, 1+rng.Intn(400))
		for i := range pool {
			pool[i] = uint64(rng.Int63n(1<<34)) &^ 63
		}
		tr := &Trace{}
		at := sim.Time(rng.Intn(1000))
		for i, n := 0, 1+rng.Intn(6000); i < n; i++ {
			switch rng.Intn(4) {
			case 0: // same instant
			case 1:
				if rng.Intn(40) == 0 {
					at += sim.Time(rng.Intn(20)) * sim.Microsecond // leaves empty windows behind
				}
			default:
				at += sim.Time(rng.Intn(3000))
			}
			addr := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 && i > 0 {
				addr = tr.Records[i-1].Addr + 64 // sequential run
			}
			tr.Records = append(tr.Records, Record{At: at, Addr: addr + uint64(rng.Intn(64)), Write: rng.Intn(3) == 0})
		}
		for name, bankRow := range mappings {
			sc := SampleConfig{
				Span:    sim.Time(50+rng.Intn(4000)) * sim.Nanosecond,
				BankRow: bankRow,
			}
			got, _ := cutWindows(tr, tr.Records[0].At, tr.Records[len(tr.Records)-1].At, sc)
			want := append([]SampleWindow(nil), got...)
			fingerprint(pack(tr.Records), got, sc)
			fingerprintReference(tr, want, sc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d, %s mapping, window %d of %d [%d,%d):\n got %+v\nwant %+v",
						round, name, i, len(want), want[i].Start, want[i].End, got[i].Vec, want[i].Vec)
				}
			}
		}
	}
}

// TestFingerprintScratchEpochWrap: when the window stamp wraps around,
// entries written under the old stamps must not read as current.
func TestFingerprintScratchEpochWrap(t *testing.T) {
	sc := newFingerprintScratch(8)
	sc.nextWindow() // the first window stamps its entries 1
	sc.openRow(3, 7)
	sc.touch(42)
	sc.epoch = math.MaxUint32 // 2^32 − 2 windows later
	sc.nextWindow()
	if sc.epoch == 0 {
		t.Fatal("epoch 0 is the never-written stamp and must be skipped")
	}
	if sc.openRow(3, 7) {
		t.Error("a row opened before the wrap reads as open after it")
	}
	if sc.touch(42); sc.unique != 1 {
		t.Errorf("a line touched before the wrap was not counted after it: unique = %d", sc.unique)
	}
}
