// Package parallel runs indexed work items across a bounded worker
// pool: an atomic work counter, a cancel on the first failure, and
// per-index error slots, so the reported error is deterministic — the
// lowest failing index, exactly what a serial loop would have hit
// first — at any pool width.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp resolves a requested pool width against n work items: <= 0
// means GOMAXPROCS, and the pool never exceeds the work count nor
// drops below one.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(ctx, i) for every i in [0, n) across Clamp(workers, n)
// goroutines and returns once all of them have exited. The ctx handed
// to fn is cancelled as soon as any item fails, so in-flight items can
// abandon their work; items not yet started are skipped. A real
// failure wins over the collateral context.Canceled of items that were
// in flight when it hit, and the lowest failing index wins among real
// failures. If ctx itself ends, For returns ctx.Err(). With one
// worker the items run in index order on the calling goroutine.
func For(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				return err
			}
		}
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := runCtx.Err(); err != nil {
					errs[i] = err
					return
				}
				if err := fn(runCtx, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}
