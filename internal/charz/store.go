package charz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

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
// None: the store grows by one file per distinct characterization and
// nothing is ever removed, so Load is read-only. A whole Quick-scale
// registry run fills it with a few dozen families of a few KiB each. A
// temp file orphaned by a killed writer and a quarantined *.bad file stay
// too; neither is ever read. Content addressing makes deleting the directory (or any file in it) safe
// at any time: a missing family is re-simulated and re-saved on its next
// request.
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) a store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("charz: creating cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir reports the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// Path reports where the family for key lives (whether or not it exists).
func (d *DiskStore) Path(key Key) string {
	k := key.String()
	return filepath.Join(d.dir, k[:2], k+".csv")
}

// Load reads the family for key. ok is false when the key is absent; a
// present but unparsable file is an error — and is quarantined: the file
// is renamed to <name>.bad, so the key reads as a clean miss from then on
// and heals by re-save, instead of re-erroring on every lookup forever.
// Local file I/O is fast enough that the context is checked only on entry.
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
	return fam, true, nil
}

// quarantine sidelines an unreadable curve file as <name>.bad — kept for a
// post-mortem rather than deleted, under a name Load never opens, so the
// key is a clean miss until a re-save heals it. Best-effort: on a read-only
// store the rename fails and the file keeps erroring, which is no worse
// than before.
func (d *DiskStore) quarantine(path string) {
	_ = os.Rename(path, path+".bad")
}

// Save writes the family for key atomically (temp file + rename), so a
// crashed or concurrent writer never leaves a torn CSV for readers.
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
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), d.Path(key)); err != nil {
		return fmt.Errorf("charz: installing cached curves: %w", err)
	}
	return nil
}
