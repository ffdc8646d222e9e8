// Package curvestore is the storage layer for Mess curve families: the
// Store interface every persistence tier implements, a bounded in-memory
// tier, and a tier composition with write-back promotion. charz.DiskStore
// is the tier the tools persist to, under -cache-dir.
//
// Curve families are expensive — producing one means running the full Mess
// benchmark sweep — and they are immutable once produced: a Key is a
// content-addressed fingerprint of the characterization request, so the
// family stored under a key can never change, only exist or not. Every tier
// exploits that: entries need no invalidation, promotion between tiers is
// always safe, and an evicted or lost entry is simply re-simulated. The
// composition rule is fail-soft — a broken tier reads as a miss, never as a
// failure, so losing every cache between a caller and its curves costs a
// re-simulation, not an error.
//
// client.go and server.go hold an HTTP client and server that no binary
// ships. They stay until the benchmark's curve-tiers workload, which drives
// them in process, drops its HTTP leg; the charz remote and chaos tests use
// them too.
package curvestore

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"github.com/mess-sim/mess/internal/core"
)

// Key is the content-addressed identity of a characterization: a SHA-256
// digest over a canonical encoding of the platform spec, the normalized
// benchmark options and the backend tag (computed by charz.Fingerprint).
// Equal keys mean the simulation would produce bit-identical curve
// families, so one stored result can serve every requester — in memory
// within a process and on disk across processes.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk file stem and the
// HTTP path segment).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns the first 12 hex digits, for logs and progress lines.
func (k Key) Short() string { return k.String()[:12] }

// ParseKey parses the canonical 64-digit lowercase-hex form. Uppercase is
// rejected so every key has exactly one URL and one file name.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*sha256.Size {
		return k, fmt.Errorf("curvestore: key %q is %d chars, want %d", s, len(s), 2*sha256.Size)
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return k, fmt.Errorf("curvestore: key %q is not lowercase hex", s)
		}
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("curvestore: key %q: %w", s, err)
	}
	copy(k[:], b)
	return k, nil
}

// Store is one persistence tier for curve families. charz.DiskStore, the
// Memory and Tiered stores here, and the HTTP Client all implement it, so
// any of them can back a characterization service or a curve server.
//
// Load reports ok=false for an absent key; an error means the key may be
// present but could not be read (corrupt file, unreachable server).
// Callers composing tiers must treat an error as a miss (fail-soft).
//
// Save must be atomic with respect to concurrent readers and idempotent:
// keys are content-addressed, so two writers storing the same key store
// semantically identical families and either may win.
//
// Both operations honour their context: a tier that talks to anything
// slower than memory (disk, network) must return promptly — with
// ctx.Err() — once the context is cancelled, so a deadline set at the top
// of the stack (a CLI -timeout, a SIGINT) propagates through every tier
// instead of being absorbed by an uninterruptible sleep. Cancellation is
// an ordinary tier error under the fail-soft rule.
type Store interface {
	Load(context.Context, Key) (*core.Family, bool, error)
	Save(context.Context, Key, *core.Family) error
}

// Memory is a concurrency-safe in-memory tier: a bounded LRU map of deep
// copies — the cheapest member of a Tiered composition.
type Memory struct {
	mu        sync.Mutex
	max       int
	entries   map[Key]*list.Element
	order     *list.List // front = most recently used
	evictions int64
}

type memEntry struct {
	key Key
	fam *core.Family
}

// NewMemory builds a memory store holding at most maxEntries families
// (LRU-evicted); maxEntries <= 0 means unbounded.
func NewMemory(maxEntries int) *Memory {
	return &Memory{
		max:     maxEntries,
		entries: map[Key]*list.Element{},
		order:   list.New(),
	}
}

// Load returns a private copy of the family for key. Purely in-memory, so
// the context is never consulted: the operation cannot block.
func (m *Memory) Load(_ context.Context, key Key) (*core.Family, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false, nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).fam.Clone(), true, nil
}

// Save stores a private copy of the family, evicting the least recently
// used entry when the bound is exceeded.
func (m *Memory) Save(_ context.Context, key Key, fam *core.Family) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		// Content-addressed: the family cannot differ, but refresh anyway
		// so a caller repairing a mangled copy converges.
		el.Value.(*memEntry).fam = fam.Clone()
		m.order.MoveToFront(el)
		return nil
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, fam: fam.Clone()})
	if m.max > 0 && m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
		m.evictions++
	}
	return nil
}

// Len reports resident entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Evictions reports cumulative LRU evictions.
func (m *Memory) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// fifoCache is a bounded concurrency-safe map with FIFO eviction, shared
// by the client's revalidation cache and the server's validator cache.
// Its entries are derived from immutable content-addressed families, so
// they can never go stale — which member gets dropped affects only
// transfer volume, making FIFO's minimal bookkeeping the right trade
// against LRU.
type fifoCache[V any] struct {
	mu    sync.Mutex
	max   int
	m     map[Key]V
	order []Key
}

// newFIFOCache builds a cache bounded to max (≥ 1) entries.
func newFIFOCache[V any](max int) *fifoCache[V] {
	return &fifoCache[V]{max: max, m: map[Key]V{}}
}

func (c *fifoCache[V]) get(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *fifoCache[V]) put(key Key, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok {
		c.order = append(c.order, key)
		if len(c.order) > c.max {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.m[key] = v
}

// Tiered composes stores in lookup order — canonically memory → disk →
// remote. A Load consults each tier in turn and, on a hit, writes the
// family back into every earlier (cheaper) tier, so repeated lookups
// migrate hot families toward the caller. A tier that errors is skipped
// (fail-soft): the search continues downward, and the error surfaces only
// if no tier hits.
type Tiered struct {
	tiers []Store
}

// NewTiered builds a composition over the given tiers in lookup order; nil
// tiers are dropped, so callers can pass optional tiers unconditionally.
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{}
	for _, st := range tiers {
		if st != nil {
			t.tiers = append(t.tiers, st)
		}
	}
	return t
}

// Load resolves key through the tiers. See LoadTier for the promotion and
// fail-soft rules.
func (t *Tiered) Load(ctx context.Context, key Key) (*core.Family, bool, error) {
	fam, tier, err := t.LoadTier(ctx, key)
	return fam, tier >= 0, err
}

// LoadTier resolves key and additionally reports which tier (index into
// the composition order) satisfied it, so callers can attribute hits —
// tier is -1 on a miss. On a hit the family is promoted: written back
// (best-effort) into every tier above the one that hit, and the error is
// nil regardless of broken tiers along the way. Only a total miss reports
// the tier errors, joined. A cancelled context stops the walk: the
// remaining (more expensive) tiers are not consulted.
func (t *Tiered) LoadTier(ctx context.Context, key Key) (fam *core.Family, tier int, err error) {
	var errs []error
	for i, st := range t.tiers {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		fam, ok, err := st.Load(ctx, key)
		if err != nil {
			errs = append(errs, err)
			continue // fail-soft: a broken tier is a miss
		}
		if !ok {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			// Promotion is best-effort: a read-only disk or a down server
			// must not turn a hit into a failure.
			_ = t.tiers[j].Save(ctx, key, fam)
		}
		return fam, i, nil
	}
	return nil, -1, errors.Join(errs...)
}

// Save writes the family through to every tier. It succeeds if at least
// one tier stored the family and reports the joined errors only when all
// of them failed — mirroring the fail-soft Load rule.
func (t *Tiered) Save(ctx context.Context, key Key, fam *core.Family) error {
	var errs []error
	saved := false
	for _, st := range t.tiers {
		if err := st.Save(ctx, key, fam); err != nil {
			errs = append(errs, err)
		} else {
			saved = true
		}
	}
	if saved {
		return nil
	}
	return errors.Join(errs...)
}
