// Package par runs a loop of independent jobs on a bounded set of
// workers. It is the one fan-out primitive of the experiment layer and the
// one worker pool of the sweep harnesses: the simulations they issue are
// deterministic and share nothing, so running them side by side changes how
// long a report takes, never what it says.
//
// The contract, in one place: min(n, bound) workers (inline at one),
// ascending dispatch, results written by the job to slot i of a
// caller-owned slice, the lowest failing index's error returned, nothing
// dispatched after a failure or once ctx is done. Do's bound is GOMAXPROCS —
// no flag, option or environment variable; Workers takes the bound from its
// caller (bench.Options.Parallelism, cxl.SweepOptions.Parallelism) and
// names the worker, so a sweep worker can keep its simulated machine in slot
// w from point to point. Callers use one fan-out level per call tree; the
// internal/exp package doc says which loops fan out and which stay serial.
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
	return Workers(ctx, runtime.GOMAXPROCS(0), n, func(_, i int) error { return fn(i) })
}

// Workers is Do on at most the given number of workers (at least one, never
// more than n), telling each job which worker runs it: fn(w, i) has
// w in [0, workers), and one w is never live on two goroutines, so slot w of
// a caller-owned slice is where a worker keeps what it reuses from job to
// job — a sweep worker's simulated machine — for the caller to release after
// the join.
func Workers(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	workers = max(1, min(workers, n))
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w int) {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(w, i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if workers == 1 {
		work(0) // on the caller's goroutine: one processor gains nothing from a hop
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
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
