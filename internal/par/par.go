// Package par runs a loop of independent jobs on a bounded set of
// workers. It is the one fan-out primitive of the experiment layer: the
// simulations an experiment issues are deterministic and share nothing, so
// running them side by side changes how long a report takes, never what it
// says.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS) workers and
// returns once all of them have exited. fn writes its result to slot i of a
// slice the caller owns, so results keep loop order whatever order the jobs
// finish in. Indices are handed out in ascending order; nothing is handed
// out after a job has failed or ctx is done. The error of the lowest failing
// index is returned — the one a serial loop would have stopped at — and
// ctx.Err() when cancellation kept any job from running.
func Do(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if workers <= 1 {
		work() // on the caller's goroutine: one processor gains nothing from a hop
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}
