package fleet

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"time"

	"pixel/api"
)

// runShard executes one shard call against the fleet. The primary arm
// starts on the shard key's ring owner and walks ring successors with
// exponential backoff (the worker's Retry-After hint honored as a
// floor — the worker knows its own drain); once the route's latency
// window knows what "slow" means, a straggling primary is hedged with
// one duplicate arm on a rotated worker order and the first result
// wins, the loser cancelled through the shared arm context.
func runShard[T any](ctx context.Context, c *Coordinator, route, key string, call func(context.Context, *api.Client) (T, error)) (T, error) {
	var zero T
	order := c.candidates(key)
	armCtx, cancelArms := context.WithCancel(ctx)
	defer cancelArms()

	type armResult struct {
		v      T
		worker string
		hedge  bool
		err    error
	}
	results := make(chan armResult, 2)
	start := time.Now()
	launch := func(rot int, hedge bool) {
		rotated := append(append(make([]*worker, 0, len(order)), order[rot%len(order):]...), order[:rot%len(order)]...)
		go func() {
			v, w, err := runArm(armCtx, c, rotated, call)
			name := ""
			if w != nil {
				name = w.name
			}
			results <- armResult{v, name, hedge, err}
		}()
	}
	launch(0, false)
	outstanding := 1

	var hedgeC <-chan time.Time
	if len(order) > 1 {
		if d, ok := c.hedgeDelay(route); ok {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	var firstErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.hedge {
					c.metrics.hedgesWon.Add(1)
				}
				elapsed := time.Since(start)
				c.window(route).observe(elapsed)
				c.metrics.shards.Inc(r.worker, route)
				c.metrics.shardLatency.Observe(elapsed.Seconds(), route)
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				// Each arm already walked every candidate; a pending hedge
				// timer has nothing new to try.
				return zero, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			c.metrics.hedgesFired.Add(1)
			launch(1, true)
			outstanding++
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// runArm tries the shard on each worker in order, wrapping around
// until the attempt budget runs out. The candidate scan skips workers
// whose circuit breaker is open — a flapping worker must not absorb
// the whole attempt budget — and every outcome feeds the winning (or
// failing) worker's breaker. It returns the winning worker with the
// result, and stops early on permanent errors — a 400 from one worker
// is a 400 from them all.
func runArm[T any](ctx context.Context, c *Coordinator, order []*worker, call func(context.Context, *api.Client) (T, error)) (T, *worker, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.metrics.retries.Add(1)
			if err := sleepCtx(ctx, jitter(c.backoff(attempt, lastErr))); err != nil {
				return zero, nil, lastErr
			}
		}
		w := pickAllowed(c, order, attempt)
		v, err := call(ctx, w.client)
		if err == nil {
			w.br.onSuccess()
			return v, w, nil
		}
		lastErr = err
		if workerFault(ctx, err) {
			if w.br.onFailure(time.Now()) {
				c.metrics.breakerOpens.Add(1)
				c.logger.Warn("fleet: breaker opened", "worker", w.name, "err", err)
			}
		}
		if !retryableErr(ctx, err) {
			return zero, nil, err
		}
	}
	return zero, nil, lastErr
}

// pickAllowed scans the candidate order from the attempt's rotation for
// the first worker whose breaker admits a call. When every breaker is
// open the nominal candidate is used anyway — a fully-tripped fleet
// must surface the real error, and the call doubles as a probe.
func pickAllowed(c *Coordinator, order []*worker, attempt int) *worker {
	n := len(order)
	now := time.Now()
	for k := 0; k < n; k++ {
		w := order[(attempt+k)%n]
		if w.br.allow(now) {
			if k > 0 {
				c.metrics.breakerSkips.Add(int64(k))
			}
			return w
		}
	}
	return order[attempt%n]
}

// backoff is the sleep before retry attempt (1-based): exponential
// from RetryBaseDelay capped at RetryMaxDelay, with the worker's
// Retry-After hint honored as a floor even above the cap.
func (c *Coordinator) backoff(attempt int, lastErr error) time.Duration {
	d := c.opts.RetryBaseDelay << (attempt - 1)
	if d > c.opts.RetryMaxDelay || d <= 0 {
		d = c.opts.RetryMaxDelay
	}
	var he *api.HTTPError
	if errors.As(lastErr, &he) && he.RetryAfterS > 0 {
		if hint := time.Duration(he.RetryAfterS) * time.Second; hint > d {
			d = hint
		}
	}
	return d
}

// jitter spreads d by ±10% so a fleet of coordinators cannot
// synchronize their retries or probes into a thundering herd on a
// recovering worker. Timing-only randomness — response bytes never
// depend on it.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration((rand.Float64()-0.5)*0.2*float64(d))
}

// retryableErr classifies a shard attempt failure: transport errors,
// temporary HTTP statuses (429, 503) and server-side 5xx are worth
// another worker; context ends and permanent 4xx statuses are not.
// 501 is a capability signal ("this worker has no such route"), not a
// fault — the caller decides on a fallback instead of retrying.
func retryableErr(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var he *api.HTTPError
	if errors.As(err, &he) {
		if he.Status == http.StatusNotImplemented {
			return false
		}
		return he.Temporary() || he.Status >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// workerFault reports whether the failure is attributable to the
// worker — the only kind the circuit breaker should count. Context
// ends (a cancelled hedge loser, a caller hang-up) and permanent 4xx
// request errors say nothing about the worker's health.
func workerFault(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *api.HTTPError
	if errors.As(err, &he) {
		return (he.Status >= 500 && he.Status != http.StatusNotImplemented) || he.Status == 429
	}
	return true
}

// sleepCtx blocks for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
