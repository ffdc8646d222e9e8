package charz

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mess-sim/mess/internal/core"
)

// TestDiskStoreConcurrentSaveLoad hammers one sharded directory from two
// DiskStore instances (modelling two processes — two CLI runs sharing one
// -cache-dir) with concurrent saves and loads. The invariants: no
// operation errors, a Load never observes a torn file (temp-file + rename
// atomicity), and every key parses afterwards as one of the families that
// was actually written for it.
func TestDiskStoreConcurrentSaveLoad(t *testing.T) {
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
	errs := make(chan error, len(stores))
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
				// This writer saved keyOf(i/2) already, and nothing removes
				// a file, so a miss is a lost write and a parse error a torn
				// one.
				got, ok, err := store.Load(bg, keyOf(i/2))
				if err != nil || !ok {
					errs <- fmt.Errorf("writer %d load %d: ok=%v err=%v", w, i, ok, err)
					return
				}
				if got.Label != "writer-0" && got.Label != "writer-1" {
					errs <- fmt.Errorf("writer %d read frankenstein family %q", w, got.Label)
					return
				}
			}
		}(w, store)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-mortem: every key was written and must parse cleanly as one
	// writer's family.
	for i := 0; i < keys; i++ {
		fam, ok, err := stores[1].Load(bg, keyOf(i))
		if err != nil || !ok {
			t.Fatalf("key %d after concurrent saves: ok=%v err=%v", i, ok, err)
		}
		if fam.Label != "writer-0" && fam.Label != "writer-1" {
			t.Fatalf("key %d holds frankenstein family %q", i, fam.Label)
		}
		if err := validateStoreTestFam(fam); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

func validateStoreTestFam(fam *core.Family) error {
	if len(fam.Curves) != 1 || len(fam.Curves[0].Points) != 2 {
		return fmt.Errorf("family shape mangled: %+v", fam)
	}
	return nil
}
