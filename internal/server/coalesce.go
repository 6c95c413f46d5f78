package server

import (
	"context"
	"sync"
)

// flightGroup coalesces identical in-flight computations: concurrent
// Do calls with the same key share one execution of fn. It is the
// serving-layer complement to the engine's result LRU — the LRU
// absorbs repeats *after* a result lands, the flight group absorbs
// repeats *while* the first computation is still running, so a
// thundering herd of identical requests costs one engine run.
//
// Cancellation is refcounted: the computation runs on a context
// detached from any single caller and is cancelled only when every
// caller waiting on it has gone away. One impatient client cannot
// abort a flight other clients still want; the last one leaving turns
// the lights off.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done    chan struct{} // closed when val/err are set
	val     V
	err     error
	waiters int
	cancel  context.CancelFunc
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{calls: map[string]*flightCall[V]{}}
}

// Do runs fn under key, or joins an identical in-flight run. It
// returns fn's result, whether this call shared another's flight, and
// the error. If ctx ends first, Do returns ctx's error immediately;
// the shared computation keeps running for any remaining waiters and
// is cancelled once none remain.
func (g *flightGroup[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, bool, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, c, true)
	}
	// Detach the run from this caller's cancellation (but keep its
	// values) so followers are not killed by the leader hanging up.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		v, err := fn(runCtx)
		g.mu.Lock()
		c.val, c.err = v, err
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	return g.wait(ctx, c, false)
}

func (g *flightGroup[V]) wait(ctx context.Context, c *flightCall[V], shared bool) (V, bool, error) {
	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		g.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		var zero V
		return zero, shared, ctx.Err()
	}
}
