package montecarlo

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sync"

	"pixel/internal/slots"
)

// State is the resumable slot store of one Monte-Carlo run: which
// (σ, trial) slots have completed and their results. Because every
// trial derives its perturbation and fault-stream seeds from
// (spec.Seed, trial) alone — never from scheduling or from other
// trials' RNG consumption — a snapshot needs no engine RNG positions:
// the completed slots plus the spec pin the remaining randomness
// exactly, and a resumed run is bit-identical to an uninterrupted one.
//
// A State is safe to Snapshot concurrently with the RunState that is
// filling it. Construct with NewState.
type State struct {
	fp [32]byte
	*slots.Store[TrialRecord]

	mu           sync.Mutex
	haveBaseline bool
	baseline     []int64
}

// NewState allocates the slot store for one run of spec. key is extra
// caller identity folded into the spec fingerprint (the public facade
// passes the network name, which the internal spec cannot see).
func NewState(spec Spec, key string) *State {
	return &State{fp: spec.fingerprint(key), Store: slots.New[TrialRecord](len(spec.Sigmas) * spec.Trials)}
}

// fingerprint hashes every result-determining field of the spec (plus
// the caller's key) so a snapshot can refuse to restore under a
// different experiment. Workers is deliberately absent: the report is
// bit-identical at any pool width, so resuming under a different width
// is legal.
func (s Spec) fingerprint(key string) [32]byte {
	prot := ""
	if s.Protection != nil {
		prot = s.Protection.Name()
	}
	return sha256.Sum256([]byte(fmt.Sprintf(
		"montecarlo-v1|%s|%d|%d|%d|%d|%d|%v|%v|%v|%s",
		key, s.Design, s.Bits, s.Terms, s.Trials, s.Seed,
		s.Sigmas, s.ErrorBudget, s.Variation, prot)))
}

// setBaseline installs (or cross-checks) the baseline output. A
// restored snapshot's baseline must match the freshly computed one
// bit-for-bit; anything else means the snapshot belongs to a different
// experiment.
func (st *State) setBaseline(baseline []int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.haveBaseline {
		if len(st.baseline) != len(baseline) {
			return fmt.Errorf("%w: baseline length %d != %d", slots.ErrSnapshotMismatch, len(st.baseline), len(baseline))
		}
		for i, v := range st.baseline {
			if v != baseline[i] {
				return fmt.Errorf("%w: baseline diverges at output %d", slots.ErrSnapshotMismatch, i)
			}
		}
		return nil
	}
	st.haveBaseline = true
	st.baseline = append([]int64(nil), baseline...)
	return nil
}

// TrialRecord is one virtual part's outcome — and, when the spec
// carries a protection scheme, the outcome of the same part's
// protected re-run from the same random draws (the Prot fields). It
// is both the slot a run fills and, as is, a snapshot's gob record.
type TrialRecord struct {
	Mismatch    float64
	ArgmaxOK    bool
	InjectedBER float64
	Clean       bool

	ProtMismatch      float64
	ProtArgmaxOK      bool
	ProtInjectedBER   float64
	ProtClean         bool
	ProtCalls         int64
	ProtRetries       int64
	ProtDisagreements int64
	ProtGaveUp        int64
}

// snapshotV1 is the gob payload of a State snapshot. Only completed
// slots ship records, so early checkpoints stay small.
type snapshotV1 struct {
	Fingerprint  [32]byte
	Total        int
	HaveBaseline bool
	Baseline     []int64
	DoneSlots    []int
	Records      []TrialRecord
}

// Snapshot encodes the completed slots. Safe to call while a RunState
// on the same State is in flight — it sees a consistent prefix of the
// completed work.
func (st *State) Snapshot() ([]byte, error) {
	st.mu.Lock()
	snap := snapshotV1{
		Fingerprint:  st.fp,
		Total:        st.Len(),
		HaveBaseline: st.haveBaseline,
		Baseline:     append([]int64(nil), st.baseline...),
	}
	st.mu.Unlock()
	snap.DoneSlots, snap.Records = st.Export()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("montecarlo: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore reinstalls a snapshot into a freshly constructed State for
// the same spec. Snapshots from a different spec (or a different
// snapshot geometry) are refused with slots.ErrSnapshotMismatch, and a
// refused snapshot installs nothing — neither slots nor baseline.
func (st *State) Restore(payload []byte) error {
	var snap snapshotV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("montecarlo: decode snapshot: %w", err)
	}
	if snap.Fingerprint != st.fp {
		return fmt.Errorf("%w: spec fingerprint differs", slots.ErrSnapshotMismatch)
	}
	if err := st.Import(snap.Total, snap.DoneSlots, snap.Records); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.haveBaseline = snap.HaveBaseline
	st.baseline = snap.Baseline
	return nil
}
