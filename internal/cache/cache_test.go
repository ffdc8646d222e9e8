package cache

import (
	"testing"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// fakeBackend records traffic and completes requests after a fixed delay.
type fakeBackend struct {
	eng   *sim.Engine
	delay sim.Time
	c     mem.Counters
	reqs  []mem.Request
}

func (f *fakeBackend) Access(req *mem.Request) {
	f.c.Add(req.Op, mem.LineSize)
	f.reqs = append(f.reqs, *req)
	req.CompleteAt(f.eng, f.eng.Now()+f.delay)
}

func setup(cfg Config) (*sim.Engine, *fakeBackend, *Hierarchy) {
	eng := sim.New()
	b := &fakeBackend{eng: eng, delay: 50 * sim.Nanosecond}
	h := New(eng, cfg, b)
	return eng, b, h
}

func TestLoadRoundTripIncludesOnChip(t *testing.T) {
	eng, _, h := setup(Config{OnChipLatency: 40 * sim.Nanosecond})
	p := h.Port(0)
	var lat sim.Time
	p.Load(1<<20, func(at sim.Time) { lat = at })
	eng.Run()
	want := 90 * sim.Nanosecond // 40 on-chip + 50 memory
	if lat != want {
		t.Fatalf("load-to-use = %v ns, want %v ns", lat.Nanoseconds(), want.Nanoseconds())
	}
}

func TestWriteAllocateStoreTraffic(t *testing.T) {
	eng, b, h := setup(Config{Policy: WriteAllocate})
	p := h.Port(0)
	addr := uint64(8 << 20) // above the writeback lag: eviction flows
	p.Store(addr, nil)
	eng.Run()
	if b.c.Reads != 1 || b.c.Writes != 1 {
		t.Fatalf("write-allocate store traffic = %v, want 1 read (RFO) + 1 write", b.c)
	}
	if b.reqs[1].Addr != addr-writebackLag {
		t.Fatalf("writeback address %#x, want store−lag %#x", b.reqs[1].Addr, addr-writebackLag)
	}
}

func TestWriteAllocateColdStoreSkipsWriteback(t *testing.T) {
	eng, b, h := setup(Config{Policy: WriteAllocate})
	h.Port(0).Store(64, nil) // below the writeback lag: nothing to evict
	eng.Run()
	if b.c.Reads != 1 || b.c.Writes != 0 {
		t.Fatalf("cold store traffic = %v, want RFO only", b.c)
	}
}

func TestWriteThroughStoreTraffic(t *testing.T) {
	eng, b, h := setup(Config{Policy: WriteThrough})
	h.Port(0).Store(8<<20, nil)
	eng.Run()
	if b.c.Reads != 0 || b.c.Writes != 1 {
		t.Fatalf("write-through store traffic = %v, want 1 write", b.c)
	}
}

func TestNonTemporalStoreTraffic(t *testing.T) {
	eng, b, h := setup(Config{Policy: WriteAllocate})
	h.Port(0).StoreNT(8<<20, nil)
	eng.Run()
	if b.c.Reads != 0 || b.c.Writes != 1 {
		t.Fatalf("NT store traffic = %v, want 1 write, no RFO", b.c)
	}
}

func TestMSHRLimitEnforced(t *testing.T) {
	eng, _, h := setup(Config{MSHRs: 2})
	p := h.Port(0)
	p.Load(0, nil)
	p.Load(64, nil)
	if p.FreeMSHR() {
		t.Fatal("MSHRs should be exhausted at 2 in-flight")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Load beyond MSHR limit did not panic")
		}
	}()
	p.Load(128, nil)
	_ = eng
}

func TestMSHRFreedOnCompletion(t *testing.T) {
	eng, _, h := setup(Config{MSHRs: 1})
	p := h.Port(0)
	doneCount := 0
	p.Load(0, func(sim.Time) { doneCount++ })
	eng.Run()
	if !p.FreeMSHR() {
		t.Fatal("MSHR not freed after completion")
	}
	p.Load(64, func(sim.Time) { doneCount++ })
	eng.Run()
	if doneCount != 2 {
		t.Fatalf("completions = %d, want 2", doneCount)
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	eng, _, h := setup(Config{WriteBufs: 2})
	p := h.Port(0)
	p.StoreNT(8<<20, nil)
	p.StoreNT(9<<20, nil)
	if p.FreeWB() {
		t.Fatal("write buffers should be exhausted")
	}
	eng.Run() // drains
	if !p.FreeWB() {
		t.Fatal("write buffers not freed after drain")
	}
}

func TestOpenPitonBugGeneratesWriteTraffic(t *testing.T) {
	// The Sec. IV-C coherency bug: loads evict clean lines as writebacks,
	// so a pure-load stream shows ~50% write traffic at the controller —
	// the anomaly the Mess characterization flagged.
	cfg := Config{Policy: WriteAllocate, EvictCleanAsDirty: true}
	eng, b, h := setup(cfg)
	p := h.Port(0)
	for i := 0; i < 100; i++ {
		p.Load(uint64(8<<20+i*64), nil)
		eng.Run()
	}
	if b.c.Writes != 100 {
		t.Fatalf("bugged hierarchy produced %d writebacks for 100 clean loads, want 100", b.c.Writes)
	}
	// And without the bug: zero.
	eng2, b2, h2 := setup(Config{Policy: WriteAllocate})
	p2 := h2.Port(0)
	for i := 0; i < 100; i++ {
		p2.Load(uint64(8<<20+i*64), nil)
		eng2.Run()
	}
	if b2.c.Writes != 0 {
		t.Fatalf("healthy hierarchy produced %d writebacks for clean loads, want 0", b2.c.Writes)
	}
}

func TestLLCHitsShortCircuit(t *testing.T) {
	cfg := Config{LLCHitRate: 1.0, LLCHitLatency: 10 * sim.Nanosecond}
	eng, b, h := setup(cfg)
	p := h.Port(0)
	// A hit is reported synchronously — no event, no callback — and the
	// port must not have invoked the miss callback.
	called := false
	at, onChip := p.Load(0, func(sim.Time) { called = true })
	if !onChip {
		t.Fatal("guaranteed LLC hit reported as a miss")
	}
	if pending := eng.Pending(); pending != 0 {
		t.Fatalf("hit scheduled %d events, want 0", pending)
	}
	eng.Run()
	if called {
		t.Fatal("hit invoked the miss callback")
	}
	if len(b.reqs) != 0 {
		t.Fatal("LLC hit leaked to memory")
	}
	if at != 10*sim.Nanosecond {
		t.Fatalf("hit latency %v, want 10 ns", at.Nanoseconds())
	}
	if p.LLCHits != 1 {
		t.Fatalf("hit counter %d, want 1", p.LLCHits)
	}
	// Stores and NT stores ack on chip the same way.
	if at, onChip := p.Store(64, nil); !onChip || at != eng.Now()+10*sim.Nanosecond {
		t.Fatalf("store hit = (%v, %v), want on-chip at +10 ns", at, onChip)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (&Config{LLCHitRate: 1.5}).Validate(); err == nil {
		t.Fatal("hit rate > 1 accepted")
	}
	if err := (&Config{MSHRs: -1}).Validate(); err == nil {
		t.Fatal("negative MSHRs accepted")
	}
	if err := (&Config{OnChipLatency: -sim.Nanosecond}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// TestHierarchyResetMatchesNew drives the same mixed traffic through a new
// hierarchy and through one that was abandoned with requests in flight and
// Reset: the backend must see the identical request stream (the LLC draw
// restarts from the seed), every old record must be reclaimed, and the pool
// must serve the second run without creating a record.
func TestHierarchyResetMatchesNew(t *testing.T) {
	cfg := Config{OnChipLatency: 40 * sim.Nanosecond, LLCHitRate: 0.3}
	drive := func(eng *sim.Engine, h *Hierarchy, until sim.Time) {
		p := h.Port(0)
		var issue func()
		issue = func() {
			for i := 0; p.FreeMSHR() && p.FreeWB() && i < 4; i++ {
				addr := uint64(8<<20) + p.Loads*64 + p.Stores*4096
				if (p.Loads+p.Stores)%3 == 0 {
					p.Store(addr, nil)
				} else {
					p.Load(addr, nil)
				}
			}
			eng.Schedule(eng.Now()+7*sim.Nanosecond, issue)
		}
		issue()
		eng.RunUntil(until)
	}

	eng, ref, h := setup(cfg)
	drive(eng, h, 2*sim.Microsecond)

	eng2, b2, h2 := setup(Config{Policy: WriteThrough, MSHRs: 32})
	drive(eng2, h2, 700*sim.Nanosecond)
	if h2.Pool().Live() == 0 {
		t.Fatal("abandoned hierarchy has nothing in flight")
	}
	before := h2.Pool().Allocated()
	eng2.Reset()
	*b2 = fakeBackend{eng: eng2, delay: b2.delay}
	h2.Reset(eng2, cfg, b2)
	if h2.Pool().Live() != 0 || h2.cfg != h.cfg {
		t.Fatalf("after Reset: %d live records, config %+v", h2.Pool().Live(), h2.cfg)
	}
	drive(eng2, h2, 2*sim.Microsecond)
	if len(b2.reqs) != len(ref.reqs) || b2.c != ref.c {
		t.Fatalf("reset hierarchy issued %d requests (%v), a new one %d (%v)", len(b2.reqs), b2.c, len(ref.reqs), ref.c)
	}
	for i := range ref.reqs {
		if a, b := ref.reqs[i], b2.reqs[i]; a.Addr != b.Addr || a.Op != b.Op || a.Issued != b.Issued {
			t.Fatalf("request %d: reset hierarchy sent %#x %v at %d, a new one %#x %v at %d", i, b.Addr, b.Op, b.Issued, a.Addr, a.Op, a.Issued)
		}
	}
	if got, want := h2.Pool().Allocated(), max(before, h.Pool().Allocated()); got != want {
		t.Fatalf("pool holds %d records after the second run, want %d (had %d, the run needs %d)", got, want, before, h.Pool().Allocated())
	}
}
