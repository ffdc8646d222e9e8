package charz

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mess-sim/mess/internal/core"
)

// TestDiskStoreConcurrentSaveLoadGC hammers one sharded directory from two
// DiskStore instances (modelling two processes — two CLI runs sharing one
// -cache-dir) with concurrent saves, loads and GC passes. The invariants:
// no operation errors, a Load never observes a torn file (temp-file +
// rename atomicity), and every key that survives eviction parses as one of
// the families that was actually written for it.
func TestDiskStoreConcurrentSaveLoadGC(t *testing.T) {
	dir := t.TempDir()
	// Two independent openers of the same directory, like two processes.
	stores := make([]*DiskStore, 2)
	for i := range stores {
		s, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}

	const keys = 16
	const iters = 60
	keyOf := func(i int) Key { return keyForStoreTest(900 + i%keys) }

	var wg sync.WaitGroup
	errs := make(chan error, 4*iters)
	for w, store := range stores {
		wg.Add(1)
		go func(w int, store *DiskStore) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keyOf(i)
				// Same key from both writers: content addressing says the
				// payloads agree, but make them distinguishable so a torn
				// mix of two writes cannot masquerade as either.
				fam := famForStoreTest(fmt.Sprintf("writer-%d", w))
				if err := store.Save(bg, key, fam); err != nil {
					errs <- fmt.Errorf("writer %d save %d: %w", w, i, err)
					return
				}
				got, ok, err := store.Load(bg, keyOf(i/2))
				if err != nil {
					// A concurrent GC may have removed the file (ok=false
					// is fine); a parse error means a torn write.
					errs <- fmt.Errorf("writer %d load %d: %w", w, i, err)
					return
				}
				if ok && got.Label != "writer-0" && got.Label != "writer-1" {
					errs <- fmt.Errorf("writer %d read frankenstein family %q", w, got.Label)
					return
				}
			}
		}(w, store)
	}
	// A dedicated GC-ing goroutine on a tight budget, evicting under the
	// writers' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		stores[0].SetMaxBytes(512) // a handful of files at most
		for i := 0; i < iters; i++ {
			if _, err := stores[0].GC(); err != nil {
				errs <- fmt.Errorf("gc %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-mortem: every surviving file must parse cleanly.
	stores[1].SetMaxBytes(0)
	survivors := 0
	for i := 0; i < keys; i++ {
		fam, ok, err := stores[1].Load(bg, keyOf(i))
		if err != nil {
			t.Fatalf("surviving key %d corrupt: %v", i, err)
		}
		if ok {
			survivors++
			if err := validateStoreTestFam(fam); err != nil {
				t.Fatalf("surviving key %d: %v", i, err)
			}
		}
	}
	t.Logf("%d/%d keys survived concurrent save/GC", survivors, keys)
}

func validateStoreTestFam(fam *core.Family) error {
	if len(fam.Curves) != 1 || len(fam.Curves[0].Points) != 2 {
		return fmt.Errorf("family shape mangled: %+v", fam)
	}
	return nil
}
