package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs the test body at several worker counts, restoring
// GOMAXPROCS afterwards; 1 exercises the inline path.
func atProcs(t *testing.T, body func(t *testing.T)) {
	for _, p := range []int{1, 2, 4} {
		p := p
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			body(t)
		})
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 100
		var runs [n]atomic.Int32
		out := make([]int, n)
		if err := Do(context.Background(), n, func(i int) error {
			runs[i].Add(1)
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("index %d ran %d times", i, got)
			}
			if out[i] != i*i {
				t.Errorf("out[%d] = %d", i, out[i])
			}
		}
	})
}

func TestDoBoundsWorkers(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		var live, peak atomic.Int32
		if err := Do(context.Background(), 32, func(int) error {
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			live.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, limit := int(peak.Load()), runtime.GOMAXPROCS(0); got > limit {
			t.Errorf("%d jobs were live at once, GOMAXPROCS is %d", got, limit)
		}
	})
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for round := 0; round < 50; round++ {
			err := Do(context.Background(), 64, func(i int) error {
				if i == 7 {
					runtime.Gosched() // let the later failures land first
				}
				if i == 7 || i == 9 || i == 40 {
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 7" {
				t.Fatalf("got %v, want the error of job 7", err)
			}
		}
	})
}

func TestDoStopsDispatchAfterFailure(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		var ran atomic.Int32
		boom := errors.New("boom")
		err := Do(context.Background(), 1000, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v", err)
		}
		if got := ran.Load(); got > 100 {
			t.Errorf("%d jobs ran after job 0 failed", got)
		}
	})
}

func TestDoCancelledContext(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Bool
		err := Do(ctx, 8, func(int) error { ran.Store(true); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if ran.Load() {
			t.Error("a job was dispatched under a cancelled context")
		}
	})
}

func TestDoCancelMidway(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int32
		err := Do(ctx, 1000, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		// Every worker may finish the job it holds, none starts another.
		if got, limit := int(ran.Load()), 3+runtime.GOMAXPROCS(0); got > limit {
			t.Errorf("%d jobs ran, want at most %d", got, limit)
		}
	})
}

func TestDoCompletedDespiteLateCancel(t *testing.T) {
	// One worker, so the cancel cannot beat a sibling to the last index.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(context.Background())
	err := Do(ctx, 4, func(i int) error {
		if i == 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("nothing was left undone, got %v", err)
	}
}

func TestDoZeroJobs(t *testing.T) {
	if err := Do(context.Background(), 0, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Do(ctx, 0, func(int) error { panic("called") }); err != nil {
		t.Fatalf("nothing was left undone, got %v", err)
	}
}

func TestDoLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		_ = Do(context.Background(), 16, func(i int) error {
			if i == 5 {
				return errors.New("boom")
			}
			return nil
		})
	}
	// Do waits for its workers, so the count is back as soon as it returns;
	// allow the runtime a moment to retire exited goroutines.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

func TestWorkersBoundAndWorkerIndex(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, tc := range []struct{ bound, n, want int }{{3, 100, 3}, {8, 5, 5}, {1, 20, 1}, {0, 20, 1}, {-2, 4, 1}} {
			// busy[w] counts the goroutines inside worker w's job: the
			// caller keeps per-worker state in slot w unsynchronised, so
			// two at once is a data race in every user.
			busy := make([]atomic.Int32, tc.want)
			var live, peak atomic.Int32
			ran := make([]atomic.Int32, tc.n)
			err := Workers(context.Background(), tc.bound, tc.n, func(w, i int) error {
				if w < 0 || w >= tc.want {
					return fmt.Errorf("job %d ran as worker %d of %d", i, w, tc.want)
				}
				if busy[w].Add(1) != 1 {
					return fmt.Errorf("worker %d is live on two goroutines", w)
				}
				n := live.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				ran[i].Add(1)
				runtime.Gosched()
				live.Add(-1)
				busy[w].Add(-1)
				return nil
			})
			if err != nil {
				t.Fatalf("bound %d, n %d: %v", tc.bound, tc.n, err)
			}
			if got := int(peak.Load()); got > tc.want {
				t.Errorf("bound %d, n %d: %d jobs were live at once, want at most %d", tc.bound, tc.n, got, tc.want)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("bound %d, n %d: index %d ran %d times", tc.bound, tc.n, i, got)
				}
			}
		}
	})
}

func TestWorkersExceedGOMAXPROCS(t *testing.T) {
	// The explicit bound is honoured above GOMAXPROCS too: four jobs that
	// each wait for all four to have started finish only on four workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var started atomic.Int32
	err := Workers(context.Background(), 4, 4, func(w, i int) error {
		started.Add(1)
		for deadline := time.Now().Add(5 * time.Second); started.Load() < 4; runtime.Gosched() {
			if time.Now().After(deadline) {
				return fmt.Errorf("job %d: only %d of 4 jobs ever started together", i, started.Load())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
