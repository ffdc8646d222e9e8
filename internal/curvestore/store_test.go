package curvestore

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"github.com/mess-sim/mess/internal/core"
)

// bg is the do-not-care context for store calls whose cancellation
// behaviour is not under test.
var bg = context.Background()

func testKey(i int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("curvestore-test-%d", i))))
}

func testFam(label string) *core.Family {
	return &core.Family{
		Label:         label,
		TheoreticalBW: 100,
		Curves: []core.Curve{
			{ReadRatio: 0.5, Points: []core.Point{{BW: 1, Latency: 95}, {BW: 60, Latency: 260}}},
			{ReadRatio: 1.0, Points: []core.Point{{BW: 1, Latency: 90}, {BW: 80, Latency: 200}}},
		},
	}
}

func TestParseKey(t *testing.T) {
	k := testKey(1)
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("round trip: %v %v", got, err)
	}
	for _, bad := range []string{
		"", "ab", k.String()[:63], k.String() + "0",
		"G" + k.String()[1:],  // non-hex
		"AB" + k.String()[2:], // uppercase is non-canonical
	} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%q) accepted", bad)
		}
	}
}

func TestMemoryStoreIsolatedAndLRUBounded(t *testing.T) {
	m := NewMemory(3)
	fam := testFam("mem")
	if err := m.Save(bg, testKey(0), fam); err != nil {
		t.Fatal(err)
	}
	fam.Label = "mutated after save"
	got, ok, err := m.Load(bg, testKey(0))
	if err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	if got.Label != "mem" {
		t.Fatalf("store aliased the saved family: %q", got.Label)
	}
	got.Curves[0].Points[0].Latency = -1
	again, _, _ := m.Load(bg, testKey(0))
	if again.Curves[0].Points[0].Latency != 95 {
		t.Fatal("store aliased the loaded family")
	}

	// Fill to the bound, touch key 0 via Load, then overflow: the load
	// refreshed key 0's recency, so key 1 is the LRU victim.
	for i := 1; i < 3; i++ {
		if err := m.Save(bg, testKey(i), testFam("fill")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := m.Load(bg, testKey(0)); !ok {
		t.Fatal("key 0 missing before overflow")
	}
	if err := m.Save(bg, testKey(3), testFam("overflow")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if _, ok, _ := m.Load(bg, testKey(0)); !ok {
		t.Fatal("recently loaded entry evicted — Load does not refresh recency")
	}
	if _, ok, _ := m.Load(bg, testKey(1)); ok {
		t.Fatal("least recently used entry survived")
	}
	if m.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions())
	}
}

// errStore is a tier that always fails, for fail-soft tests.
type errStore struct{ err error }

func (e errStore) Load(context.Context, Key) (*core.Family, bool, error) { return nil, false, e.err }
func (e errStore) Save(context.Context, Key, *core.Family) error         { return e.err }

func TestTieredPromotesOnHit(t *testing.T) {
	hot, cold := NewMemory(0), NewMemory(0)
	tiered := NewTiered(hot, nil, cold) // nil tiers are dropped: cold is tier 1
	key := testKey(10)
	if err := cold.Save(bg, key, testFam("deep")); err != nil {
		t.Fatal(err)
	}

	fam, tier, err := tiered.LoadTier(bg, key)
	if err != nil || tier != 1 || fam.Label != "deep" {
		t.Fatalf("LoadTier = %v tier=%d err=%v, want hit on tier 1", fam, tier, err)
	}
	// The hit was promoted: the hot tier now answers directly.
	if _, ok, _ := hot.Load(bg, key); !ok {
		t.Fatal("hit not promoted into the hotter tier")
	}
	if _, tier, _ := tiered.LoadTier(bg, key); tier != 0 {
		t.Fatalf("second lookup hit tier %d, want 0", tier)
	}
}

func TestTieredFailSoft(t *testing.T) {
	boom := errors.New("tier down")
	good := NewMemory(0)
	key := testKey(11)
	if err := good.Save(bg, key, testFam("survivor")); err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(errStore{boom}, good)

	// A broken tier above a good one: the hit wins, no error.
	fam, ok, err := tiered.Load(bg, key)
	if err != nil || !ok || fam.Label != "survivor" {
		t.Fatalf("Load through broken tier: fam=%v ok=%v err=%v", fam, ok, err)
	}

	// A total miss reports the tier errors.
	if _, ok, err := tiered.Load(bg, testKey(12)); ok || !errors.Is(err, boom) {
		t.Fatalf("miss: ok=%v err=%v, want the joined tier error", ok, err)
	}

	// Save succeeds if any tier stored it...
	if err := tiered.Save(bg, testKey(13), testFam("x")); err != nil {
		t.Fatalf("save with one good tier: %v", err)
	}
	// ...and fails only when all tiers failed.
	allBroken := NewTiered(errStore{boom}, errStore{boom})
	if err := allBroken.Save(bg, testKey(14), testFam("x")); !errors.Is(err, boom) {
		t.Fatalf("save with no good tier: %v", err)
	}
}
