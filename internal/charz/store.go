package charz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/core"
)

// DiskStore persists curve families under a cache directory, one file per
// key in the release CSV format (core.Family.WriteCSV / core.ReadCSV), so
// cached curves stay loadable by the standalone tools and by the upstream
// Mess simulator release format alike. File names are the hex key, making
// the store content-addressed: a stale file cannot be served for a changed
// configuration, because the changed configuration hashes elsewhere.
//
// # Layout
//
// Files are sharded into 256 subdirectories by the first two hex digits of
// the key (dir/ab/abcdef….csv), so a full-sweep cache of thousands of
// families never produces a directory large enough to slow lookups or
// directory scans.
//
// # Eviction
//
// An optional size bound (SetMaxBytes, or the -cache-max-mb CLI flag)
// turns the store into an LRU cache: Load refreshes a file's modification
// time, and a GC pass evicts least-recently-used families until the store
// fits the budget. GC runs automatically after saves (amortized — roughly
// every 32 writes once the budget is near) and can be invoked explicitly.
type DiskStore struct {
	dir string

	mu        sync.Mutex
	maxBytes  int64
	sizeKnown bool
	sizeBytes int64 // approximate resident bytes while sizeKnown
	saves     int   // saves since the last GC pass

	evictions atomic.Int64 // cumulative files evicted by GC
}

// gcEvery bounds how many saves may elapse between automatic GC passes
// once a size budget is set.
const gcEvery = 32

// NewDiskStore opens (creating if needed) a store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("charz: creating cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir reports the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// SetMaxBytes bounds the store's on-disk size; 0 (the default) disables
// eviction. The bound is enforced by GC passes, not per write, so the store
// may transiently exceed it by the files saved since the last pass.
func (d *DiskStore) SetMaxBytes(n int64) {
	d.mu.Lock()
	d.maxBytes = n
	d.mu.Unlock()
}

// isKeyFile reports whether name is a content-addressed curve file.
func isKeyFile(name string) bool {
	if !strings.HasSuffix(name, ".csv") {
		return false
	}
	stem := strings.TrimSuffix(name, ".csv")
	if len(stem) != 64 {
		return false
	}
	for _, c := range stem {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path reports where the family for key lives (whether or not it exists).
func (d *DiskStore) Path(key Key) string {
	k := key.String()
	return filepath.Join(d.dir, k[:2], k+".csv")
}

// Load reads the family for key. ok is false when the key is absent; a
// present but unparsable file is an error — and is quarantined: the file
// is renamed to <name>.bad, so the key reads as a clean miss from then on
// and heals by re-save, instead of re-erroring on every lookup forever. A
// hit refreshes the file's modification time, which is the recency signal
// the GC pass evicts by. Local file I/O is fast enough that the context is
// checked only on entry.
func (d *DiskStore) Load(ctx context.Context, key Key) (fam *core.Family, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	path := d.Path(key)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("charz: opening cached curves: %w", err)
	}
	defer f.Close()
	fam, err = core.ReadCSV(f)
	if err != nil {
		d.quarantine(path)
		return nil, false, fmt.Errorf("charz: parsing cached curves %s: %w", path, err)
	}
	// Best-effort LRU touch; a read-only store still serves hits.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return fam, true, nil
}

// quarantine sidelines an unreadable curve file as <name>.bad — kept for a
// post-mortem rather than deleted, invisible to isKeyFile so the key is a
// clean miss until a re-save heals it, and swept by GC like an orphaned
// temp file. Best-effort: on a read-only store the rename fails and the
// file keeps erroring, which is no worse than before.
func (d *DiskStore) quarantine(path string) {
	_ = os.Rename(path, path+".bad")
}

// Save writes the family for key atomically (temp file + rename), so a
// crashed or concurrent writer never leaves a torn CSV for readers. When a
// size budget is set, an amortized GC pass keeps the store under it.
func (d *DiskStore) Save(ctx context.Context, key Key, fam *core.Family) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	shard := filepath.Dir(d.Path(key))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("charz: creating shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(shard, "."+key.Short()+"-*.tmp")
	if err != nil {
		return fmt.Errorf("charz: creating cache temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := fam.WriteCSV(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("charz: writing cached curves: %w", err)
	}
	var written int64
	if fi, err := tmp.Stat(); err == nil {
		written = fi.Size()
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), d.Path(key)); err != nil {
		return fmt.Errorf("charz: installing cached curves: %w", err)
	}
	d.noteSave(written)
	return nil
}

// noteSave tracks the approximate store size and triggers the amortized GC
// pass when the budget is exceeded (or every gcEvery saves as a backstop).
func (d *DiskStore) noteSave(written int64) {
	d.mu.Lock()
	// Keep the size estimate fresh even with no budget: Size() feeds the
	// curve server's /v1/stats, which must not report a stale walk.
	if d.sizeKnown {
		d.sizeBytes += written
	}
	max := d.maxBytes
	if max <= 0 {
		d.mu.Unlock()
		return
	}
	d.saves++
	over := d.sizeKnown && d.sizeBytes > max
	due := d.saves >= gcEvery || !d.sizeKnown
	d.mu.Unlock()
	if over || due {
		_, _ = d.GC()
	}
}

// GC evicts least-recently-used curve files until the store fits its size
// budget, reporting how many files it removed. With no budget set it only
// refreshes the internal size estimate. Eviction is safe at any time: the
// store is content-addressed, so an evicted family is simply re-simulated
// (and re-saved) on its next request.
func (d *DiskStore) GC() (evicted int, err error) {
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, fmt.Errorf("charz: scanning cache dir: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(d.dir, sh.Name()))
		if err != nil {
			continue // shard vanished under us
		}
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				continue
			}
			if !isKeyFile(e.Name()) {
				// Sweep temp files orphaned by a killed writer and
				// quarantined (.bad) files past their post-mortem window:
				// both are invisible to Load yet consume the budget.
				// Anything still mid-write is far younger than an hour.
				stale := strings.HasSuffix(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".bad")
				if stale && time.Since(fi.ModTime()) > time.Hour {
					_ = os.Remove(filepath.Join(d.dir, sh.Name(), e.Name()))
				}
				continue
			}
			files = append(files, file{
				path:  filepath.Join(d.dir, sh.Name(), e.Name()),
				size:  fi.Size(),
				mtime: fi.ModTime(),
			})
			total += fi.Size()
		}
	}

	d.mu.Lock()
	max := d.maxBytes
	d.mu.Unlock()
	if max > 0 && total > max {
		// Oldest (least recently loaded or saved) first.
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		for _, f := range files {
			if total <= max {
				break
			}
			if rmErr := os.Remove(f.path); rmErr != nil {
				if os.IsNotExist(rmErr) {
					total -= f.size
					continue
				}
				err = rmErr
				continue
			}
			total -= f.size
			evicted++
		}
	}

	d.mu.Lock()
	d.sizeKnown = true
	d.sizeBytes = total
	d.saves = 0
	d.mu.Unlock()
	d.evictions.Add(int64(evicted))
	return evicted, err
}

// Evictions reports the cumulative number of files GC has evicted — the
// counter the curve server surfaces in /v1/stats.
func (d *DiskStore) Evictions() int64 { return d.evictions.Load() }

// Size reports the store's current resident bytes (walking the store if no
// estimate is cached yet).
func (d *DiskStore) Size() (int64, error) {
	d.mu.Lock()
	if d.sizeKnown {
		n := d.sizeBytes
		d.mu.Unlock()
		return n, nil
	}
	d.mu.Unlock()
	if _, err := d.GC(); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sizeBytes, nil
}
