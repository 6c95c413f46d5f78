package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{0, 1000, procs},
		{-3, 1000, procs},
		{4, 2, 2},
		{4, 0, 1},
		{1, 9, 1},
		{7, 9, 7},
	} {
		if got := Clamp(tc.workers, tc.n); got != tc.want {
			t.Errorf("Clamp(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestForRunsEveryIndexOnce checks each index runs exactly once at any
// pool width, including more workers than items.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64, 0} {
		const n = 100
		var hits [n]atomic.Int32
		if err := For(context.Background(), n, workers, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForLowestRealErrorWins pins the deterministic error choice: the
// lowest failing index is reported, and a real failure beats the
// collateral context.Canceled of items that observe the pool's
// cancellation.
func TestForLowestRealErrorWins(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := For(context.Background(), 50, workers, func(ctx context.Context, i int) error {
			switch {
			case i == 7 || i == 30:
				return fmt.Errorf("item %d failed", i)
			case i < 7:
				return nil
			}
			// Items past the first failure wait for the pool to cancel
			// them (or finish, when they ran before it).
			if i > 30 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("workers=%d: err = %v, want item 7 failed", workers, err)
		}
	}
}

// TestForParentCancellation checks a cancelled parent context is
// reported as itself, before any work and while items are in flight.
func TestForParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := For(ctx, 4, 2, func(context.Context, int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled: err = %v, ran = %v", err, ran)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := For(ctx, 20, workers, func(ctx context.Context, i int) error {
			if i == 5 {
				cancel()
				return errors.New("saw cancellation late")
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
