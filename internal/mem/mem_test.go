package mem

import (
	"testing"
	"testing/quick"

	"github.com/mess-sim/mess/internal/sim"
)

func TestCountersAddAndRatios(t *testing.T) {
	var c Counters
	c.Add(Read, 64)
	c.Add(Read, 64)
	c.Add(Write, 64)
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("counters %v", c)
	}
	if c.TotalBytes() != 192 || c.TotalOps() != 3 {
		t.Fatalf("totals %v", c)
	}
	if r := c.ReadRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("read ratio %v", r)
	}
	var empty Counters
	if empty.ReadRatio() != 1 {
		t.Fatal("empty window convention: read ratio 1")
	}
}

func TestBandwidthGBs(t *testing.T) {
	var c Counters
	for i := 0; i < 1000; i++ {
		c.Add(Read, 64)
	}
	// 64 kB in 1 µs = 64 GB/s.
	if bw := c.BandwidthGBs(sim.Microsecond); bw < 63.9 || bw > 64.1 {
		t.Fatalf("bandwidth %v GB/s, want 64", bw)
	}
	if c.BandwidthGBs(0) != 0 {
		t.Fatal("zero window must report zero bandwidth")
	}
}

func TestCountersSubMergeProperty(t *testing.T) {
	// Counting b's traffic on top of a's, then subtracting a, leaves b, and
	// byte totals are conserved.
	prop := func(r1, w1, r2, w2 uint16) bool {
		count := func(c *Counters, r, w uint16) {
			for i := 0; i < int(r%200); i++ {
				c.Add(Read, 64)
			}
			for i := 0; i < int(w%200); i++ {
				c.Add(Write, 64)
			}
		}
		var a, b Counters
		count(&a, r1, w1)
		count(&b, r2, w2)
		sum := a
		count(&sum, r2, w2)
		diff := sum.Sub(a)
		return diff == b && sum.TotalBytes() == a.TotalBytes()+b.TotalBytes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nullBackend completes nothing; counting must still record traffic.
type nullBackend struct{ n int }

func (b *nullBackend) Access(*Request) { b.n++ }

func TestCountingBackendForwards(t *testing.T) {
	inner := &nullBackend{}
	cb := NewCounting(inner)
	cb.Access(&Request{Op: Read})
	cb.Access(&Request{Op: Write})
	cb.Access(&Request{Op: Write})
	if inner.n != 3 {
		t.Fatalf("forwarded %d requests", inner.n)
	}
	// Every request is one line.
	snap := cb.Snapshot()
	if snap.ReadBytes != 64 || snap.WriteBytes != 128 {
		t.Fatalf("counted %v", snap)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op names")
	}
}

// --- Request-pool lifecycle invariants ---

// sink is a backend that parks requests for manual completion.
type sink struct{ got []*Request }

func (s *sink) Access(req *Request) { s.got = append(s.got, req) }

func TestRequestPoolReuseAfterRelease(t *testing.T) {
	p := NewRequestPool()
	r1 := p.Get(0x40, Read, nil)
	if p.Live() != 1 || p.Allocated() != 1 {
		t.Fatalf("after Get: live=%d allocated=%d", p.Live(), p.Allocated())
	}
	r1.Complete(10)
	if p.Live() != 0 {
		t.Fatalf("after Complete: live=%d", p.Live())
	}
	r2 := p.Get(0x80, Write, nil)
	if r2 != r1 {
		t.Fatal("released record was not recycled")
	}
	if p.Allocated() != 1 {
		t.Fatalf("recycling allocated a new record: allocated=%d", p.Allocated())
	}
	if r2.Addr != 0x80 || r2.Op != Write || r2.Done != nil || r2.User != nil || r2.Parent != nil {
		t.Fatalf("recycled record not reinitialized: %+v", r2)
	}
	r2.Complete(20)
}

func TestRequestDoubleCompletePanics(t *testing.T) {
	p := NewRequestPool()
	r := p.Get(0, Read, nil)
	r.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete on a released pooled request must panic")
		}
	}()
	r.Complete(2)
}

func TestCompleteInvokesDoneWithRequest(t *testing.T) {
	p := NewRequestPool()
	var gotAt sim.Time
	var gotCtx uint64
	r := p.Get(0xabc, Read, func(at sim.Time, req *Request) {
		gotAt = at
		gotCtx = req.Ctx
		if req.Addr != 0xabc {
			t.Errorf("Done saw addr %#x", req.Addr)
		}
	})
	r.Ctx = 77
	r.Complete(42)
	if gotAt != 42 || gotCtx != 77 {
		t.Fatalf("Done got (at=%v ctx=%d), want (42, 77)", gotAt, gotCtx)
	}
	if p.Live() != 0 {
		t.Fatal("record must be released after Done returns")
	}
}

func TestCompleteAtSchedulesAndNilDoneReleasesImmediately(t *testing.T) {
	eng := sim.New()
	p := NewRequestPool()

	// No callback: no observer, so the record is released immediately and
	// no engine event is spent.
	r := p.Get(0, Write, nil)
	r.CompleteAt(eng, 100)
	if p.Live() != 0 || eng.Pending() != 0 {
		t.Fatalf("nil-Done CompleteAt: live=%d pending=%d, want 0/0", p.Live(), eng.Pending())
	}

	// With a callback: completion fires at the deadline, then releases.
	var fired sim.Time
	r = p.Get(0, Read, func(at sim.Time, _ *Request) { fired = at })
	r.CompleteAt(eng, 250)
	if p.Live() != 1 {
		t.Fatal("record must stay live until the completion event fires")
	}
	eng.Run()
	if fired != 250 || p.Live() != 0 {
		t.Fatalf("fired=%v live=%d, want 250/0", fired, p.Live())
	}
}

func TestSendAtDeliversWithIssuedStamped(t *testing.T) {
	eng := sim.New()
	p := NewRequestPool()
	var s sink
	r := p.Get(0x40, Read, nil)
	r.SendAt(eng, &s, 300)
	if len(s.got) != 0 {
		t.Fatal("delivery must wait for the deadline")
	}
	eng.Run()
	if len(s.got) != 1 || s.got[0] != r {
		t.Fatalf("delivered %d requests", len(s.got))
	}
	if r.Issued != 300 || eng.Now() != 300 {
		t.Fatalf("Issued=%v now=%v, want 300", r.Issued, eng.Now())
	}
	r.Complete(eng.Now())
}

func TestLiteralRequestComplete(t *testing.T) {
	// Literal (non-pooled) requests keep working: Complete invokes Done
	// and release is a no-op.
	eng := sim.New()
	var fired sim.Time
	r := &Request{Addr: 1, Op: Read, Done: func(at sim.Time, _ *Request) { fired = at }}
	r.CompleteAt(eng, 90)
	eng.Run()
	if fired != 90 {
		t.Fatalf("literal request completion at %v, want 90", fired)
	}
}

// TestPoolSteadyStateZeroAlloc is the contract's headline: once the pool
// is warm, an issue/complete cycle — including a scheduled completion
// through the engine — allocates nothing.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New()
	p := NewRequestPool()
	done := func(sim.Time, *Request) {}
	// Warm the pool and the engine's event pool.
	for i := 0; i < 64; i++ {
		r := p.Get(uint64(i)*64, Read, done)
		r.CompleteAt(eng, eng.Now()+10)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		r := p.Get(0x40, Read, done)
		r.CompleteAt(eng, eng.Now()+10)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state issue/complete allocates %.1f/op, want 0", allocs)
	}
}

func TestRequestDoubleCompleteAtPanics(t *testing.T) {
	// The nil-Done fast path of CompleteAt releases without scheduling; a
	// second completion must panic rather than self-link the free list.
	eng := sim.New()
	p := NewRequestPool()
	r := p.Get(0, Write, nil)
	r.CompleteAt(eng, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("second CompleteAt on a released pooled request must panic")
		}
	}()
	r.CompleteAt(eng, 9)
}

// TestRequestPoolReset pins the reuse contract of a pool whose simulation
// was abandoned: every acquired record comes back, nothing is invoked, and
// the double-completion guard still holds for the reclaimed records.
func TestRequestPoolReset(t *testing.T) {
	p := NewRequestPool()
	fired := 0
	done := func(sim.Time, *Request) { fired++ }
	var held []*Request
	for i := 0; i < 8; i++ {
		held = append(held, p.Get(uint64(i)*LineSize, Read, done))
	}
	held[2].Complete(1) // one already back on the free list
	eng := sim.New()
	held[5].CompleteAt(eng, 100) // one with its completion scheduled
	eng.Reset()
	p.Reset()
	if p.Live() != 0 || p.Allocated() != 8 || fired != 1 {
		t.Fatalf("after Reset: live=%d allocated=%d done calls=%d, want 0, 8, 1", p.Live(), p.Allocated(), fired)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("completing a reclaimed record must panic")
			}
		}()
		held[0].Complete(2)
	}()
	// Every record is reusable, and no new one is needed for the same load.
	seen := map[*Request]bool{}
	for i := 0; i < 8; i++ {
		r := p.Get(0, Write, nil)
		if r.Done != nil || r.User != nil || r.Parent != nil {
			t.Fatalf("reclaimed record not cleared: %+v", r)
		}
		seen[r] = true
	}
	if len(seen) != 8 || p.Allocated() != 8 || p.Live() != 8 {
		t.Fatalf("after reuse: %d distinct records, allocated=%d live=%d, want 8 each", len(seen), p.Allocated(), p.Live())
	}
	p.Reset()
	p.Reset() // idempotent
	if p.Live() != 0 {
		t.Fatalf("live=%d after second Reset", p.Live())
	}
}
