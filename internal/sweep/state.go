package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pixel/internal/arch"
)

// ErrSnapshotMismatch reports a snapshot taken over a different job
// list — resuming from it would assign costs to the wrong grid cells,
// so it is refused.
var ErrSnapshotMismatch = errors.New("sweep: snapshot does not match this job list")

// State is the resumable slot store of one sweep run: which jobs have
// been priced and their costs. Every cost is a pure function of its
// (network, point) job, so completed slots plus the job list pin the
// whole run — a resumed sweep returns results bit-identical to an
// uninterrupted one at any worker count.
//
// A State is safe to Snapshot concurrently with the RunState that is
// filling it. Construct with NewState.
type State struct {
	fp    [32]byte
	total int

	mu        sync.Mutex
	done      []bool
	results   []arch.NetworkCost
	completed int
}

// NewState allocates the slot store for one run over jobs.
func NewState(jobs []Job) *State {
	return &State{
		fp:      fingerprintJobs(jobs),
		total:   len(jobs),
		done:    make([]bool, len(jobs)),
		results: make([]arch.NetworkCost, len(jobs)),
	}
}

// fingerprintJobs hashes the ordered job list so a snapshot can refuse
// to restore under a different grid (or the same points reordered —
// slot indices would then point at the wrong cells). The bytes hashed
// are "sweep-v1|<n>" then "|<network>|<point>" per job, appended by
// hand because every sweep request builds a State.
func fingerprintJobs(jobs []Job) [32]byte {
	h := sha256.New()
	buf := strconv.AppendInt([]byte("sweep-v1|"), int64(len(jobs)), 10)
	for _, j := range jobs {
		h.Write(buf)
		buf = append(buf[:0], '|')
		buf = append(buf, j.Network...)
		buf = append(buf, '|')
		buf = append(buf, j.Point.Design.String()...)
		buf = append(buf, "/L"...)
		buf = strconv.AppendInt(buf, int64(j.Point.Lanes), 10)
		buf = append(buf, "/B"...)
		buf = strconv.AppendInt(buf, int64(j.Point.Bits), 10)
	}
	h.Write(buf)
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// Progress returns completed and total slot counts.
func (st *State) Progress() (done, total int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.completed, st.total
}

// isDone reports whether slot i already holds a cost.
func (st *State) isDone(i int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done[i]
}

// set records slot i's cost and returns the cumulative count.
func (st *State) set(i int, c arch.NetworkCost) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.done[i] {
		st.done[i] = true
		st.results[i] = c
		st.completed++
	}
	return st.completed
}

// eachDone calls fn for every completed slot, in slot order. The costs
// are copied out under the lock first, so fn runs without holding it.
func (st *State) eachDone(fn func(i int, c arch.NetworkCost)) {
	st.mu.Lock()
	type cell struct {
		i int
		c arch.NetworkCost
	}
	cells := make([]cell, 0, st.completed)
	for i, d := range st.done {
		if d {
			cells = append(cells, cell{i, st.results[i]})
		}
	}
	st.mu.Unlock()
	for _, cl := range cells {
		fn(cl.i, cl.c)
	}
}

// costs returns the filled result slice; callers must only use it once
// every slot is done.
func (st *State) costs() []arch.NetworkCost {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]arch.NetworkCost, len(st.results))
	copy(out, st.results)
	return out
}

// sweepSnapshotV1 is the gob payload of a State snapshot. Only
// completed slots ship costs, so early checkpoints stay small.
type sweepSnapshotV1 struct {
	Fingerprint [32]byte
	Total       int
	DoneSlots   []int
	Costs       []arch.NetworkCost
}

// Snapshot encodes the completed slots. Safe to call while a RunState
// on the same State is in flight — it sees a consistent prefix of the
// completed work.
func (st *State) Snapshot() ([]byte, error) {
	st.mu.Lock()
	snap := sweepSnapshotV1{Fingerprint: st.fp, Total: st.total}
	for i, d := range st.done {
		if d {
			snap.DoneSlots = append(snap.DoneSlots, i)
			snap.Costs = append(snap.Costs, st.results[i])
		}
	}
	st.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("sweep: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore reinstalls a snapshot into a freshly constructed State over
// the same job list. Snapshots from a different job list are refused
// with ErrSnapshotMismatch.
func (st *State) Restore(payload []byte) error {
	var snap sweepSnapshotV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("sweep: decode snapshot: %w", err)
	}
	if snap.Fingerprint != st.fp {
		return fmt.Errorf("%w: job-list fingerprint differs", ErrSnapshotMismatch)
	}
	if snap.Total != st.total {
		return fmt.Errorf("%w: %d slots, job list has %d", ErrSnapshotMismatch, snap.Total, st.total)
	}
	if len(snap.DoneSlots) != len(snap.Costs) {
		return fmt.Errorf("%w: %d done slots but %d costs", ErrSnapshotMismatch, len(snap.DoneSlots), len(snap.Costs))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done = make([]bool, st.total)
	st.results = make([]arch.NetworkCost, st.total)
	st.completed = 0
	for k, i := range snap.DoneSlots {
		if i < 0 || i >= st.total {
			return fmt.Errorf("%w: slot %d out of range", ErrSnapshotMismatch, i)
		}
		if st.done[i] {
			return fmt.Errorf("%w: slot %d recorded twice", ErrSnapshotMismatch, i)
		}
		st.done[i] = true
		st.results[i] = snap.Costs[k]
		st.completed++
	}
	return nil
}
