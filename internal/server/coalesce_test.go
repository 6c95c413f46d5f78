package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waiters reports how many callers are attached to key's in-flight
// computation (0 when none is running), so a test can prove a follower
// has actually joined a flight before releasing it.
func (g *flightGroup[V]) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup[int]()
	var calls atomic.Int64
	block := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		calls.Add(1)
		<-block
		return 42, nil
	}

	type outcome struct {
		v      int
		shared bool
		err    error
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			v, shared, err := g.Do(context.Background(), "k", fn)
			results <- outcome{v, shared, err}
		}()
	}
	// Only release once both callers are attached to the same flight.
	waitFor(t, "both waiters joined", func() bool { return g.waiters("k") == 2 })
	close(block)

	var sharedCount int
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil || o.v != 42 {
			t.Fatalf("Do = %d, %v; want 42, nil", o.v, o.err)
		}
		if o.shared {
			sharedCount++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if sharedCount != 1 {
		t.Errorf("shared callers = %d, want exactly 1 (the follower)", sharedCount)
	}
}

func TestFlightGroupDistinctKeysRunIndependently(t *testing.T) {
	g := newFlightGroup[string]()
	var calls atomic.Int64
	fn := func(ctx context.Context) (string, error) {
		calls.Add(1)
		return "v", nil
	}
	if _, shared, err := g.Do(context.Background(), "a", fn); shared || err != nil {
		t.Fatalf("first key: shared=%v err=%v", shared, err)
	}
	if _, shared, err := g.Do(context.Background(), "b", fn); shared || err != nil {
		t.Fatalf("second key: shared=%v err=%v", shared, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("fn ran %d times, want 2", got)
	}
}

func TestFlightGroupLastWaiterCancelsTheRun(t *testing.T) {
	g := newFlightGroup[int]()
	fnCtxErr := make(chan error, 1)
	fn := func(ctx context.Context) (int, error) {
		<-ctx.Done()
		fnCtxErr <- ctx.Err()
		return 0, ctx.Err()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do(ctx1, "k", fn)
		errs <- err
	}()
	waitFor(t, "leader in flight", func() bool { return g.waiters("k") == 1 })
	go func() {
		_, _, err := g.Do(ctx2, "k", fn)
		errs <- err
	}()
	waitFor(t, "follower joined", func() bool { return g.waiters("k") == 2 })

	// The leader hanging up must NOT cancel the computation: the
	// follower still wants it.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	select {
	case err := <-fnCtxErr:
		t.Fatalf("run cancelled while a waiter remained: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The last waiter leaving cancels the run.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second caller got %v, want context.Canceled", err)
	}
	select {
	case err := <-fnCtxErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run was never cancelled after all waiters left")
	}
}
