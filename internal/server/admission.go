package server

import (
	"context"
	"net/http"
	"time"

	"pixel/internal/httpx"
)

// errShed is the admission-control rejection: the server is at its
// in-flight bound and the request did not get a slot within the queue
// timeout. It renders as HTTP 429 with a Retry-After hint.
var errShed error = &httpx.Error{
	Status: http.StatusTooManyRequests,
	Code:   "overloaded",
	Msg:    "server: overloaded, request shed",
}

// limiter is the admission controller: a bounded in-flight semaphore
// with a queue timeout. Rather than letting fan-in stack goroutines
// without bound and collapse tail latency, requests beyond MaxInFlight
// wait at most queueTimeout for a slot and are then shed.
type limiter struct {
	sem          chan struct{}
	queueTimeout time.Duration
}

func newLimiter(maxInFlight int, queueTimeout time.Duration) *limiter {
	return &limiter{
		sem:          make(chan struct{}, maxInFlight),
		queueTimeout: queueTimeout,
	}
}

// acquire takes an in-flight slot, waiting up to the queue timeout.
// It returns errShed on timeout, or ctx's error if the caller gave up
// first. A nil error means the caller owns a slot and must release it.
func (l *limiter) acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(l.queueTimeout)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-t.C:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *limiter) release() { <-l.sem }

// admit runs fn holding an in-flight slot of l.
func admit[V any](l *limiter, ctx context.Context, fn func(context.Context) (V, error)) (V, error) {
	if err := l.acquire(ctx); err != nil {
		var zero V
		return zero, err
	}
	defer l.release()
	return fn(ctx)
}
