package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// rigPoint is one point of the reuse gate's sequence.
type rigPoint struct {
	spec       platform.Spec
	mix        Mix
	paceNs     float64
	generators int
	// custom routes the point through the Backend factory, whose product
	// the rig builds per point, on its engine, and does not keep.
	custom bool
}

func (p rigPoint) String() string {
	return fmt.Sprintf("%s %v pace %g, %d generators, custom=%v", p.spec.Name, p.mix, p.paceNs, p.generators, p.custom)
}

func (p rigPoint) options() Options {
	o := QuickOptions()
	o.Warmup, o.Measure = 2*sim.Microsecond, 4*sim.Microsecond // many points, run under -race
	if p.custom {
		cfg := p.spec.DRAM
		o.Backend = func(eng *sim.Engine) mem.Backend { return dram.New(eng, cfg) }
	}
	return o.withDefaults()
}

func (p rigPoint) on(r *rig) (Sample, error) {
	return p.onSharded(r, 0)
}

// onSharded measures the point with Options.Shards set to shards, which the
// rig must ignore.
func (p rigPoint) onSharded(r *rig, shards int) (Sample, error) {
	o := p.options()
	o.Shards = shards
	return r.measure(p.spec, o, telemetry.Track{}, p.mix, p.paceNs, p.generators)
}

// rigPoints is what one worker's rig may meet, and more: saturated and
// sparse points of every kind of mix, the unloaded point, a custom backend
// between detailed ones, and a second platform (other channel count, DRAM
// timing, cache policy and on-chip hop) that forces the DRAM system to be
// rebuilt — and rebuilt again on the way back.
func rigPoints() []rigPoint {
	a := miniPlatform()
	a.DRAM.Channels = 3
	b := miniPlatform()
	b.Name = "mini-ddr5"
	b.Cores = 6
	b.DRAM = dram.DDR5(4800, 4, 1)
	b.Policy = cache.WriteThrough
	b.OnChipLatency = sim.FromNanoseconds(30)
	return []rigPoint{
		{spec: a, mix: Mix{StorePercent: 0}, paceNs: 0, generators: a.Cores - 1},
		{spec: a, mix: Mix{StorePercent: 100}, paceNs: 0, generators: a.Cores - 1},
		{spec: a, mix: Mix{StorePercent: 50, NonTemporal: true}, paceNs: 16, generators: a.Cores - 1},
		{spec: a},
		{spec: a, mix: Mix{StorePercent: 20}, paceNs: 256, generators: a.Cores - 1},
		{spec: a, mix: Mix{StorePercent: 40}, paceNs: 4, generators: a.Cores - 1, custom: true},
		{spec: b, mix: Mix{StorePercent: 60}, paceNs: 2, generators: b.Cores - 1},
		{spec: b},
	}
}

// TestRigReuseMatchesFresh is the differential gate of rig reuse: one rig
// driven through shuffled sequences of unlike points must return, for every
// point, exactly the Sample a new rig returns. Each leg sets the ignored
// Options.Shards to a count callers still pass, and must also land on the
// first leg's Samples: asking for shards changes nothing.
func TestRigReuseMatchesFresh(t *testing.T) {
	points := rigPoints()
	var serial []Sample
	for shards := 1; shards <= 4; shards++ {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fresh := make([]Sample, len(points))
			for i, p := range points {
				s, err := p.onSharded(newRig(), shards)
				if err != nil {
					t.Fatalf("fresh %v: %v", p, err)
				}
				if serial != nil && s != serial[i] {
					t.Fatalf("%v:\nshards=%d %+v\nshards=1 %+v", p, shards, s, serial[i])
				}
				fresh[i] = s
			}
			if serial == nil {
				serial = fresh
			}
			warm := newRig()
			for seed := int64(1); seed <= 2; seed++ {
				for _, i := range rand.New(rand.NewSource(seed)).Perm(len(points)) {
					got, err := points[i].onSharded(warm, shards)
					if err != nil {
						t.Fatalf("seed %d warm %v: %v", seed, points[i], err)
					}
					if got != fresh[i] {
						t.Fatalf("seed %d %v:\nwarm rig  %+v\nfresh rig %+v", seed, points[i], got, fresh[i])
					}
				}
			}
		})
	}
}

// TestRigResetFromMidFlight pins what the reuse gate relies on: a saturated
// point really does leave its rig with hundreds of requests in flight and
// events pending, and the next point's reset reclaims all of it.
func TestRigResetFromMidFlight(t *testing.T) {
	points := rigPoints()
	r := newRig()
	if _, err := points[1].on(r); err != nil {
		t.Fatal(err)
	}
	pool := r.hier.Pool()
	if pool.Live() < 100 || r.eng.Pending() == 0 {
		t.Fatalf("saturated point ended with %d requests in flight and %d events pending", pool.Live(), r.eng.Pending())
	}
	stale := r.eng.NewTimer(func() { t.Error("an event of the previous point fired") })
	stale.Arm(r.eng.Now() + sim.Nanosecond)
	s, err := points[3].on(r) // unloaded: only the chaser's one request at a time
	if err != nil {
		t.Fatal(err)
	}
	if stale.Armed() || pool.Live() > 1 || s.BWGBs > 1 {
		t.Fatalf("unloaded point after a saturated one: stale event armed=%v, %d requests in flight, %.2f GB/s", stale.Armed(), pool.Live(), s.BWGBs)
	}
}

// TestWarmRigGarbage is the garbage gate: once a rig has run a point, running
// it again creates no request record and allocates none of the machine —
// channel slot stores, rings, bank tables, engine event pool. What a point still
// allocates is its issuers (chaser, generators, their ports and timers) and
// the counting wrapper, about 4 KB on this 8-core platform; a new rig
// allocates about 100 KB for the same point.
func TestWarmRigGarbage(t *testing.T) {
	p := rigPoints()[1] // saturated write-allocate stores: the deepest queues
	allocated := func(r *rig) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := p.on(r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	r := newRig()
	first := allocated(r)
	records := r.hier.Pool().Allocated()
	const bound = 16 << 10
	for i := 0; i < 3; i++ {
		if got := allocated(r); got > bound {
			t.Errorf("warm point %d allocated %d bytes, want at most %d (the first allocated %d)", i, got, bound, first)
		}
		if got := r.hier.Pool().Allocated(); got != records {
			t.Errorf("warm point %d grew the request pool from %d to %d records", i, records, got)
		}
	}
	if first < 4*bound {
		t.Errorf("first point allocated only %d bytes: the bound of %d no longer separates warm from new", first, bound)
	}
}
