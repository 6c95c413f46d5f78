package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"strconv"

	"pixel/internal/arch"
	"pixel/internal/slots"
)

// State is the resumable slot store of one sweep run: which jobs have
// been priced and their costs. Every cost is a pure function of its
// (network, point) job, so completed slots plus the job list pin the
// whole run — a resumed sweep returns results bit-identical to an
// uninterrupted one at any worker count.
//
// A State is safe to Snapshot concurrently with the RunState that is
// filling it. Construct with NewState.
type State struct {
	fp [32]byte
	*slots.Store[arch.NetworkCost]
}

// NewState allocates the slot store for one run over jobs.
func NewState(jobs []Job) *State {
	return &State{fp: fingerprintJobs(jobs), Store: slots.New[arch.NetworkCost](len(jobs))}
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
	snap := sweepSnapshotV1{Fingerprint: st.fp, Total: st.Len()}
	snap.DoneSlots, snap.Costs = st.Export()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("sweep: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore reinstalls a snapshot into a freshly constructed State over
// the same job list. Snapshots from a different job list are refused
// with slots.ErrSnapshotMismatch, and a refused snapshot installs
// nothing.
func (st *State) Restore(payload []byte) error {
	var snap sweepSnapshotV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("sweep: decode snapshot: %w", err)
	}
	if snap.Fingerprint != st.fp {
		return fmt.Errorf("%w: job-list fingerprint differs", slots.ErrSnapshotMismatch)
	}
	return st.Import(snap.Total, snap.DoneSlots, snap.Costs)
}
