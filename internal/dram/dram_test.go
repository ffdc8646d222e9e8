package dram

import (
	"testing"
	"testing/quick"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// testConfig is two DDR4 channels kept open-page: the row-state tests
// below place their second access long after the preset's 250 ns idle close.
func testConfig() Config {
	cfg := DDR4(2666, 2, 1)
	cfg.IdleClose = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
	bad = good
	bad.RowBytes = 100
	if err := bad.Validate(); err == nil {
		t.Fatal("non-multiple-of-64 row accepted")
	}
	bad = good
	bad.Timing.Burst = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero burst accepted")
	}
	// The address decode shifts ranks, banks and lines per row.
	for name, mutate := range map[string]func(*Config){
		"3 ranks":        func(c *Config) { c.Ranks = 3 },
		"12 banks":       func(c *Config) { c.Banks = 12 },
		"96 lines a row": func(c *Config) { c.RowBytes = 96 * 64 },
	} {
		bad = good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad = good
	bad.Channels = 3 // channels are a modulus, not a shift
	if err := bad.Validate(); err != nil {
		t.Fatalf("three channels rejected: %v", err)
	}
}

func TestPeakBandwidth(t *testing.T) {
	cfg := DDR4(2666, 6, 1)
	got := cfg.PeakBandwidthGBs()
	if got < 126 || got > 130 {
		t.Fatalf("6×DDR4-2666 peak = %.1f GB/s, want ≈128", got)
	}
	cfg5 := DDR5(4800, 8, 2)
	got5 := cfg5.PeakBandwidthGBs()
	if got5 < 303 || got5 > 311 {
		t.Fatalf("8×DDR5-4800 peak = %.1f GB/s, want ≈307", got5)
	}
	hbm := HBM2(32)
	if g := hbm.PeakBandwidthGBs(); g < 1020 || g > 1028 {
		t.Fatalf("32×HBM2 peak = %.1f GB/s, want ≈1024", g)
	}
	hbme := HBM2E(32)
	if g := hbme.PeakBandwidthGBs(); g < 1600 || g > 1660 {
		t.Fatalf("32×HBM2E peak = %.1f GB/s, want ≈1631", g)
	}
}

// Loc is a physical location in the memory system.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     int64
	Col     int // line index within the row
}

// Map resolves addr to its location.
func (m Mapper) Map(addr uint64) Loc {
	ch, rank, bank, row, col := m.decode(addr)
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: col}
}

// unmap is the inverse of Mapper.Map: the lowest address of the line at the
// location.
func unmap(m Mapper, l Loc) uint64 {
	line := uint64(l.Row)
	line = line*uint64(m.Ranks) + uint64(l.Rank)
	line = line*uint64(m.Banks) + uint64(l.Bank)
	line = line*uint64(m.LinesPerRow) + uint64(l.Col)
	line = line*uint64(m.Channels) + uint64(l.Channel)
	return line * mem.LineSize
}

func TestMapperBijective(t *testing.T) {
	cfg := testConfig()
	m := NewMapper(&cfg)
	f := func(line uint32) bool {
		addr := uint64(line) * mem.LineSize
		loc := m.Map(addr)
		if loc.Channel < 0 || loc.Channel >= m.Channels ||
			loc.Rank < 0 || loc.Rank >= m.Ranks ||
			loc.Bank < 0 || loc.Bank >= m.Banks ||
			loc.Col < 0 || loc.Col >= m.LinesPerRow || loc.Row < 0 {
			return false
		}
		return unmap(m, loc) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// MapReq and RoundTrips reach the controller's decode and the test-side
// Map from the external decode test, which imports the platforms.
func (m Mapper) MapReq(addr uint64) (ch int, bi int32, rank int32, row int64) {
	return m.mapReq(addr)
}

func (m Mapper) RoundTrips(addr uint64) bool {
	l := m.Map(addr)
	return unmap(m, l) == addr&^(mem.LineSize-1)
}

func TestMapperSequentialLocality(t *testing.T) {
	cfg := testConfig()
	m := NewMapper(&cfg)
	// Consecutive lines must interleave across channels; lines that land on
	// the same channel must stay in the same row until the row is exhausted.
	first := m.Map(0)
	sameChannelNext := m.Map(uint64(m.Channels) * mem.LineSize)
	if sameChannelNext.Channel != first.Channel {
		t.Fatal("stride by channel count changed channel")
	}
	if sameChannelNext.Row != first.Row || sameChannelNext.Bank != first.Bank {
		t.Fatal("adjacent line on same channel left the row")
	}
	if m.Map(mem.LineSize).Channel == first.Channel {
		t.Fatal("adjacent lines did not interleave across channels")
	}
}

// singleRead issues one read to an idle system and returns its latency.
func singleRead(t *testing.T, cfg Config, addr uint64) sim.Time {
	t.Helper()
	eng := sim.New()
	sys := New(eng, cfg)
	var done sim.Time = -1
	issue := eng.Now()
	sys.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { done = at }})
	eng.RunUntil(sim.Microsecond)
	if done < 0 {
		t.Fatal("read never completed")
	}
	return done - issue
}

func TestIdleReadLatencyEmptyRow(t *testing.T) {
	cfg := testConfig()
	lat := singleRead(t, cfg, 0)
	want := cfg.Timing.RCD + cfg.Timing.CL + cfg.Timing.Burst + cfg.CtrlLatency
	if lat != want {
		t.Fatalf("idle empty-row read latency = %v ns, want %v ns",
			lat.Nanoseconds(), want.Nanoseconds())
	}
}

func TestRowHitLatency(t *testing.T) {
	cfg := testConfig()
	eng := sim.New()
	sys := New(eng, cfg)
	var first, second sim.Time
	sys.Access(&mem.Request{Addr: 0, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { first = at }})
	eng.RunUntil(sim.Microsecond / 2)
	issue := eng.Now()
	// Same channel, same row, next column.
	addr := uint64(cfg.Channels) * mem.LineSize
	sys.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { second = at }})
	eng.RunUntil(sim.Microsecond)
	if first == 0 || second == 0 {
		t.Fatal("reads did not complete")
	}
	hitLat := second - issue
	want := cfg.Timing.CL + cfg.Timing.Burst + cfg.CtrlLatency
	if hitLat != want {
		t.Fatalf("row-hit latency = %v ns, want %v ns", hitLat.Nanoseconds(), want.Nanoseconds())
	}
	stats := sys.RowStats()
	if stats.Hits != 1 || stats.Empties != 1 {
		t.Fatalf("row stats = %+v, want 1 hit 1 empty", stats)
	}
}

func TestRowConflictLatency(t *testing.T) {
	cfg := testConfig()
	cfg.IdleClose = 0 // keep rows open so the conflict is guaranteed
	eng := sim.New()
	sys := New(eng, cfg)
	sys.Access(&mem.Request{Addr: 0, Op: mem.Read, Done: func(_ sim.Time, _ *mem.Request) {}})
	eng.RunUntil(sim.Microsecond / 2)
	issue := eng.Now()
	// Same channel and bank, different row: stride by channels×linesPerRow×banks...
	// row increments after col and bank and rank exhaust; same bank+rank, next row:
	m := NewMapper(&cfg)
	stride := uint64(m.Channels*m.LinesPerRow*m.Banks*m.Ranks) * mem.LineSize
	var done sim.Time
	sys.Access(&mem.Request{Addr: stride, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { done = at }})
	eng.RunUntil(sim.Microsecond)
	if done == 0 {
		t.Fatal("conflict read did not complete")
	}
	lat := done - issue
	want := cfg.Timing.RP + cfg.Timing.RCD + cfg.Timing.CL + cfg.Timing.Burst + cfg.CtrlLatency
	// The precharge may additionally wait for tRAS since activation; at
	// half a microsecond after the first access tRAS has long expired.
	if lat != want {
		t.Fatalf("row-conflict latency = %v ns, want %v ns", lat.Nanoseconds(), want.Nanoseconds())
	}
	if s := sys.RowStats(); s.Misses != 1 {
		t.Fatalf("row stats = %+v, want 1 miss", s)
	}
}

func TestIdleCloseTurnsConflictIntoEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.IdleClose = 200 * sim.Nanosecond
	eng := sim.New()
	sys := New(eng, cfg)
	sys.Access(&mem.Request{Addr: 0, Op: mem.Read, Done: func(_ sim.Time, _ *mem.Request) {}})
	eng.RunUntil(sim.Microsecond / 2) // way past the idle-close timeout
	m := NewMapper(&cfg)
	stride := uint64(m.Channels*m.LinesPerRow*m.Banks*m.Ranks) * mem.LineSize
	sys.Access(&mem.Request{Addr: stride, Op: mem.Read, Done: func(_ sim.Time, _ *mem.Request) {}})
	eng.RunUntil(sim.Microsecond)
	if s := sys.RowStats(); s.Misses != 0 || s.Empties != 2 {
		t.Fatalf("row stats = %+v, want 2 empties (idle close)", s)
	}
}

// floodReads keeps `depth` reads outstanding per stream over `streams`
// sequential address streams (bases far apart, so they hit distinct banks,
// as the multi-core Mess traffic generator does) until n total completions,
// and returns achieved bandwidth in GB/s.
func floodReads(cfg Config, n, depth, streams int) float64 {
	eng := sim.New()
	sys := New(eng, cfg)
	completed := 0
	var end sim.Time
	for s := 0; s < streams; s++ {
		// Separate streams by both row range (64 MB) and bank (16 KB) so
		// concurrent streams exercise distinct banks, like distinct cores.
		next := uint64(s) * (64<<20 + 16<<10)
		var issueOne func()
		issueOne = func() {
			addr := next
			next += mem.LineSize
			sys.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) {
				completed++
				end = at
				if completed+sys.Queued() < n {
					issueOne()
				}
			}})
		}
		for i := 0; i < depth; i++ {
			issueOne()
		}
	}
	eng.Run()
	if end <= 0 {
		return 0
	}
	return float64(completed*mem.LineSize) / end.Seconds() / 1e9
}

func TestSequentialReadBandwidthNearPeak(t *testing.T) {
	cfg := testConfig()
	cfg.IdleClose = 300 * sim.Nanosecond
	bw := floodReads(cfg, 20000, 16, 4)
	peak := cfg.PeakBandwidthGBs()
	if bw < 0.85*peak {
		t.Fatalf("multi-stream sequential read bandwidth = %.1f GB/s, want ≥ 85%% of peak %.1f", bw, peak)
	}
	if bw > peak*1.001 {
		t.Fatalf("bandwidth %.1f exceeds theoretical peak %.1f", bw, peak)
	}
}

func TestSingleStreamCCDLimited(t *testing.T) {
	// One stream keeps a single bank busy: DDR4 tCCD_L (5 tCK) gates the
	// CAS rate below the bus peak (4 tCK per burst). This is real device
	// behaviour, and the reason the Mess generator spreads streams.
	cfg := testConfig()
	cfg.IdleClose = 300 * sim.Nanosecond
	bw := floodReads(cfg, 10000, 32, 1)
	peak := cfg.PeakBandwidthGBs()
	ccdBound := peak * float64(cfg.Timing.Burst) / float64(cfg.Timing.CCD)
	if bw > ccdBound*1.02 {
		t.Fatalf("single-stream bandwidth %.1f GB/s beats tCCD bound %.1f", bw, ccdBound)
	}
	if bw < ccdBound*0.85 {
		t.Fatalf("single-stream bandwidth %.1f GB/s far below tCCD bound %.1f", bw, ccdBound)
	}
}

func TestSequentialStreamHitRateHigh(t *testing.T) {
	cfg := testConfig()
	cfg.IdleClose = 300 * sim.Nanosecond
	eng := sim.New()
	sys := New(eng, cfg)
	next := uint64(0)
	n := 20000
	var issueOne func()
	issueOne = func() {
		addr := next
		next += mem.LineSize
		sys.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) {
			if next < uint64(n)*mem.LineSize {
				issueOne()
			}
		}})
	}
	for i := 0; i < 8; i++ {
		issueOne()
	}
	eng.Run()
	hit, _, miss := sys.RowStats().Ratios()
	if hit < 0.90 {
		t.Fatalf("sequential stream hit rate = %.2f, want ≥ 0.90 (miss %.2f)", hit, miss)
	}
}

func TestWriteCompletesAtDrain(t *testing.T) {
	cfg := testConfig()
	eng := sim.New()
	sys := New(eng, cfg)
	var ack sim.Time = -1
	sys.Access(&mem.Request{Addr: 0, Op: mem.Write, Done: func(at sim.Time, _ *mem.Request) { ack = at }})
	eng.RunUntil(sim.Microsecond)
	if ack < 0 {
		t.Fatal("write never drained")
	}
	// An empty-row write drains after ACT+CAS+burst at the earliest.
	min := cfg.Timing.RCD + cfg.Timing.Burst
	if ack < min {
		t.Fatalf("write drained at %v ns, before device minimum %v ns", ack.Nanoseconds(), min.Nanoseconds())
	}
	if rs := sys.RowStats(); rs.Total() != 1 {
		t.Fatalf("row stats after one write: %+v", rs)
	}
}

// TestCountersConservation checks that the system serves exactly what it
// is sent: the traffic counted at submission by a CountingBackend — the
// counters the benchmark samples — equals the traffic counted at
// completion, and every request is one row-buffer outcome.
func TestCountersConservation(t *testing.T) {
	cfg := testConfig()
	eng := sim.New()
	sys := New(eng, cfg)
	counting := mem.NewCounting(sys)
	var completed mem.Counters
	done := func(_ sim.Time, r *mem.Request) { completed.Add(r.Op, mem.LineSize) }
	reads, writes := 0, 0
	rng := uint64(12345)
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		addr := (rng >> 16) % (1 << 30)
		addr &^= mem.LineSize - 1
		op := mem.Read
		if rng%3 == 0 {
			op = mem.Write
			writes++
		} else {
			reads++
		}
		counting.Access(&mem.Request{Addr: addr, Op: op, Done: done})
	}
	eng.Run()
	c := counting.Snapshot()
	if int(c.Reads) != reads || int(c.Writes) != writes {
		t.Fatalf("counters %v, want %d reads %d writes", c, reads, writes)
	}
	if c.TotalBytes() != uint64(reads+writes)*mem.LineSize {
		t.Fatalf("byte counters %v", c)
	}
	if completed != c {
		t.Fatalf("completed %v, submitted %v", completed, c)
	}
	if rs := sys.RowStats(); rs.Total() != uint64(reads+writes) {
		t.Fatalf("row stats total %d, want %d", rs.Total(), reads+writes)
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 1
	eng := sim.New()
	sys := New(eng, cfg)
	// Find the first refresh (staggered offset) and issue a read right after
	// it begins: the read must be delayed by up to tRFC.
	// Refresh offset for ch0/rank0 with 1 channel 1 rank: REFI*1/2.
	refAt := cfg.Timing.REFI / 2
	eng.RunUntil(refAt + sim.Nanosecond)
	var done sim.Time
	issue := eng.Now()
	sys.Access(&mem.Request{Addr: 0, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) { done = at }})
	eng.RunUntil(refAt + 2*cfg.Timing.RFC)
	if done == 0 {
		t.Fatal("read under refresh never completed")
	}
	lat := done - issue
	min := cfg.Timing.RFC / 2 // must have waited a significant part of tRFC
	if lat < min {
		t.Fatalf("read under refresh took %v ns, expected ≥ %v ns", lat.Nanoseconds(), min.Nanoseconds())
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 1
	cfg.WriteHi = 8
	cfg.WriteLo = 2
	eng := sim.New()
	sys := New(eng, cfg)
	// Saturate with writes only; they must all eventually drain.
	drained := 0
	for i := 0; i < 100; i++ {
		addr := uint64(i) * mem.LineSize
		sys.Access(&mem.Request{Addr: addr, Op: mem.Write, Done: func(_ sim.Time, _ *mem.Request) { drained++ }})
	}
	eng.Run()
	if q := sys.Queued(); q != 0 {
		t.Fatalf("%d requests stuck in queues", q)
	}
	if drained != 100 {
		t.Fatalf("drained %d writes, want 100", drained)
	}
}

func TestMixedTrafficCompletes(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		n := int(nOps%500) + 50
		cfg := testConfig()
		eng := sim.New()
		sys := New(eng, cfg)
		doneCount := 0
		rng := seed | 1
		for i := 0; i < n; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			addr := ((rng >> 13) % (1 << 28)) &^ (mem.LineSize - 1)
			op := mem.Read
			if rng&1 == 0 {
				op = mem.Write
			}
			sys.Access(&mem.Request{Addr: addr, Op: op, Done: func(_ sim.Time, _ *mem.Request) { doneCount++ }})
		}
		eng.Run()
		return doneCount == n && sys.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFAWLimitsRandomActivates(t *testing.T) {
	// All-miss traffic to one rank must be activate-limited well below the
	// bus peak: that is the mechanism behind the paper's bandwidth decline.
	cfg := testConfig()
	cfg.Channels = 1
	cfg.IdleClose = 0
	eng := sim.New()
	sys := New(eng, cfg)
	m := NewMapper(&cfg)
	rowStride := uint64(m.Channels*m.LinesPerRow*m.Banks*m.Ranks) * mem.LineSize
	n := 4000
	completed := 0
	var start, end sim.Time
	next := 0
	var issueOne func()
	issueOne = func() {
		// Each access targets a different row in a rotating bank: every
		// access is a row miss needing an ACT.
		addr := uint64(next)*rowStride + uint64(next%cfg.Banks)*uint64(m.Channels*m.LinesPerRow)*mem.LineSize
		next++
		sys.Access(&mem.Request{Addr: addr, Op: mem.Read, Done: func(at sim.Time, _ *mem.Request) {
			completed++
			end = at
			if next < n {
				issueOne()
			}
		}})
	}
	start = eng.Now()
	for i := 0; i < 32; i++ {
		issueOne()
	}
	eng.Run()
	bw := float64(completed*mem.LineSize) / (end - start).Seconds() / 1e9
	fawBW := 4.0 * 64 / cfg.Timing.FAW.Seconds() / 1e9
	if bw > fawBW*1.15 {
		t.Fatalf("all-miss bandwidth %.1f GB/s exceeds tFAW bound %.1f GB/s", bw, fawBW)
	}
	if bw < fawBW*0.5 {
		t.Fatalf("all-miss bandwidth %.1f GB/s implausibly far below tFAW bound %.1f GB/s", bw, fawBW)
	}
}
