// Package slots is the landed-results store behind every resumable run:
// the sweep engine's grid cells, the Monte-Carlo engine's (σ, trial)
// trials, and the fleet coordinator's harvested σ points and grid
// cells. Every unit of work lands in a fixed slot and the first write
// wins, so a checkpoint is nothing more than the filled slots — see
// docs/JOBS.md.
package slots

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pixel/internal/parallel"
)

// ErrSnapshotMismatch reports a snapshot that does not fit the run it
// is restored into — a different spec or job list, another slot count,
// or a torn slot list. Resuming from it would mix two experiments, so
// it is refused. The public pixel.ErrSnapshotMismatch is this value.
var ErrSnapshotMismatch = errors.New("pixel: snapshot does not match this run")

// Store holds n fixed slots of type R. It is safe for concurrent use;
// construct with New.
type Store[R any] struct {
	mu     sync.Mutex
	done   []bool
	vals   []R
	landed int
}

// New returns a store of n empty slots (none when n < 0).
func New[R any](n int) *Store[R] {
	n = max(n, 0)
	return &Store[R]{done: make([]bool, n), vals: make([]R, n)}
}

// Len returns the slot count.
func (s *Store[R]) Len() int { return len(s.done) }

// Progress returns the landed and total slot counts.
func (s *Store[R]) Progress() (landed, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.landed, len(s.done)
}

// Done reports whether slot i holds a value.
func (s *Store[R]) Done(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[i]
}

// Land stores r in slot i unless the slot already holds a value, and
// returns whether it did plus the landed count afterwards.
func (s *Store[R]) Land(i int, r R) (bool, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[i] {
		return false, s.landed
	}
	s.done[i] = true
	s.vals[i] = r
	s.landed++
	return true, s.landed
}

// Values returns slots [lo, hi) without copying them; empty slots read
// as the zero R. The slice shares the store's memory and is capped at
// hi, so the caller must not write it. A landed slot never changes, so
// its element is safe to read while other slots land; an empty slot's
// element is not.
func (s *Store[R]) Values(lo, hi int) []R {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[lo:hi:hi]
}

// Missing returns the empty slot indices in order.
func (s *Store[R]) Missing() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for i, d := range s.done {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// Export returns the landed slot indices in order and their values —
// the in-order view a snapshot or a job's partial result is built
// from. Both slices are fresh and non-nil.
func (s *Store[R]) Export() (idx []int, vals []R) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx = make([]int, 0, s.landed)
	vals = make([]R, 0, s.landed)
	for i, d := range s.done {
		if d {
			idx = append(idx, i)
			vals = append(vals, s.vals[i])
		}
	}
	return idx, vals
}

// Import replaces the store's contents with a snapshot's landed slots:
// total is the slot count the snapshot was taken over, idx[k] the slot
// holding vals[k]. A snapshot of another size, with mismatched counts,
// an out-of-range slot or a slot recorded twice is refused with
// ErrSnapshotMismatch before anything is installed, so a rejected
// Import leaves the store exactly as it was.
func (s *Store[R]) Import(total int, idx []int, vals []R) error {
	n := len(s.done)
	switch {
	case total != n:
		return fmt.Errorf("%w: %d slots, run has %d", ErrSnapshotMismatch, total, n)
	case len(idx) != len(vals):
		return fmt.Errorf("%w: %d done slots but %d values", ErrSnapshotMismatch, len(idx), len(vals))
	}
	done := make([]bool, n)
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: slot %d out of range", ErrSnapshotMismatch, i)
		}
		if done[i] {
			return fmt.Errorf("%w: slot %d recorded twice", ErrSnapshotMismatch, i)
		}
		done[i] = true
	}
	out := make([]R, n)
	for k, i := range idx {
		out[i] = vals[k]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done, s.vals, s.landed = done, out, len(idx)
	return nil
}

// Fill computes every empty slot with eval across a pool of workers
// (parallel.For semantics: the lowest failing slot's error wins, and
// ctx ending stops the pool) and lands each result. onLand, when
// non-nil, fires once per landed slot with the landed count; its calls
// are serialized under one lock, so the counts it sees strictly
// increase. Slots already filled — restored from a snapshot — are
// skipped. On failure the slots landed so far stay, ready to export.
func (s *Store[R]) Fill(ctx context.Context, workers int, eval func(ctx context.Context, i int) (R, error), onLand func(i int, r R, landed int)) error {
	var hook sync.Mutex
	return parallel.For(ctx, len(s.done), workers, func(ctx context.Context, i int) error {
		if s.Done(i) {
			return nil
		}
		r, err := eval(ctx, i)
		if err != nil {
			return err
		}
		hook.Lock()
		defer hook.Unlock()
		if ok, landed := s.Land(i, r); ok && onLand != nil {
			onLand(i, r, landed)
		}
		return nil
	})
}
