package montecarlo

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"pixel/internal/protect"
	"pixel/internal/slots"
)

// reportJSON canonicalizes a report for byte-level comparison.
func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptAfter runs spec until roughly k trials have completed, then
// cancels — simulating a crash — and returns a snapshot of the partial
// state. The snapshot may hold more than k slots (in-flight trials
// finish before the pool drains); what matters is that it holds a
// strict, non-empty prefix of the work.
func interruptAfter(t *testing.T, spec Spec, k int) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := NewState(spec, "")
	_, err := RunState(ctx, spec, st, Hooks{
		OnTrial: func(done, total int) {
			if done >= k {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	done, total := st.Progress()
	if done == 0 || done >= total {
		t.Fatalf("interrupted at %d/%d slots; need a strict non-empty prefix", done, total)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestResumeBitExact is the crash-resume property from the ISSUE: kill
// a run after a random prefix, resume from its snapshot — possibly at a
// different worker count — and the final JSON report must be
// byte-identical to an uninterrupted same-seed run.
func TestResumeBitExact(t *testing.T) {
	spec := tinySpec(t)
	spec.Trials = 12
	spec.Sigmas = []float64{0, 1, 3}

	straight, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, straight)

	for _, tc := range []struct {
		name                            string
		cutAt                           int
		interruptWorkers, resumeWorkers int
	}{
		{"serial-to-serial", 5, 1, 1},
		{"parallel-to-parallel", 17, 3, 3},
		{"widen-pool-on-resume", 9, 1, 4},
		{"shrink-pool-on-resume", 23, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := spec
			spec.Workers = tc.interruptWorkers
			snap := interruptAfter(t, spec, tc.cutAt)

			spec.Workers = tc.resumeWorkers
			st := NewState(spec, "")
			if err := st.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restored, _ := st.Progress()
			rep, err := RunState(context.Background(), spec, st, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, rep); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed report differs from straight run (restored %d slots):\n%s\nwant\n%s",
					restored, got, want)
			}
		})
	}
}

// TestResumeBitExactProtected repeats the property with a protection
// scheme attached, since protected trials carry extra per-trial state
// (counters, retry outcomes) through the snapshot.
func TestResumeBitExactProtected(t *testing.T) {
	spec := tinySpec(t)
	spec.Trials = 8
	spec.Sigmas = []float64{1, 3}
	spec.Protection = protect.TMR()
	spec.Workers = 3

	straight, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, straight)

	snap := interruptAfter(t, spec, 6)
	st := NewState(spec, "")
	if err := st.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rep, err := RunState(context.Background(), spec, st, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed protected report differs:\n%s\nwant\n%s", got, want)
	}
}

// TestRestoreRejectsForeignSnapshot: snapshots refuse to cross specs,
// keys, or geometries.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	spec := tinySpec(t)
	spec.Trials = 4
	spec.Sigmas = []float64{0, 1}
	snap := interruptAfter(t, spec, 2)

	otherSeed := spec
	otherSeed.Seed = spec.Seed + 1
	if err := NewState(otherSeed, "").Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("different seed: err = %v, want ErrSnapshotMismatch", err)
	}
	otherProt := spec
	otherProt.Protection = protect.TMR()
	if err := NewState(otherProt, "").Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("different protection: err = %v, want ErrSnapshotMismatch", err)
	}
	if err := NewState(spec, "other-network").Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("different key: err = %v, want ErrSnapshotMismatch", err)
	}
	// A different worker count is NOT a different experiment.
	otherWorkers := spec
	otherWorkers.Workers = 7
	if err := NewState(otherWorkers, "").Restore(snap); err != nil {
		t.Fatalf("different workers must restore cleanly: %v", err)
	}
	if err := NewState(spec, "").Restore(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}

	// A snapshot with the right fingerprint but a torn slot list is
	// refused whole: no slot lands and its baseline is not installed.
	st := NewState(spec, "")
	total := len(spec.Sigmas) * spec.Trials
	for name, torn := range map[string]snapshotV1{
		"duplicate slot": {DoneSlots: []int{0, 1, 1}, Records: make([]TrialRecord, 3)},
		"slot off axis":  {DoneSlots: []int{0, total}, Records: make([]TrialRecord, 2)},
		"count mismatch": {DoneSlots: []int{0, 1}, Records: make([]TrialRecord, 1)},
		"other total":    {Total: total + 1, DoneSlots: []int{0}, Records: make([]TrialRecord, 1)},
	} {
		torn.Fingerprint, torn.HaveBaseline, torn.Baseline = st.fp, true, []int64{1, 2, 3}
		if torn.Total == 0 {
			torn.Total = total
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(torn); err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(buf.Bytes()); !errors.Is(err, slots.ErrSnapshotMismatch) {
			t.Fatalf("%s: err = %v, want ErrSnapshotMismatch", name, err)
		}
		if done, n := st.Progress(); done != 0 || n != total {
			t.Fatalf("%s: rejected restore left progress %d/%d, want 0/%d", name, done, n, total)
		}
		if st.haveBaseline {
			t.Fatalf("%s: rejected restore installed its baseline", name)
		}
	}
}

// TestHooksObserveRun pins the hook contract: OnTrial counts reach the
// total exactly once each, OnPoint fires once per σ row with the same
// aggregates the report carries, and a resumed run announces fully
// restored rows up front.
func TestHooksObserveRun(t *testing.T) {
	spec := tinySpec(t)
	spec.Trials = 6
	spec.Sigmas = []float64{0, 1, 2}
	spec.Workers = 3

	var mu sync.Mutex
	var lastDone int
	points := make(map[int]SigmaPoint)
	rep, err := RunState(context.Background(), spec, NewState(spec, ""), Hooks{
		OnTrial: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= lastDone {
				t.Errorf("OnTrial done went %d -> %d; must be strictly increasing", lastDone, done)
			}
			lastDone = done
			if total != len(spec.Sigmas)*spec.Trials {
				t.Errorf("OnTrial total = %d", total)
			}
		},
		OnPoint: func(i int, p SigmaPoint, prot *ProtectedPoint) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := points[i]; dup {
				t.Errorf("OnPoint fired twice for row %d", i)
			}
			if prot != nil {
				t.Errorf("unprotected spec delivered a protected point")
			}
			points[i] = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != len(spec.Sigmas)*spec.Trials {
		t.Fatalf("final OnTrial done = %d, want %d", lastDone, len(spec.Sigmas)*spec.Trials)
	}
	if len(points) != len(spec.Sigmas) {
		t.Fatalf("OnPoint fired for %d rows, want %d", len(points), len(spec.Sigmas))
	}
	for i, p := range points {
		if !reflect.DeepEqual(p, rep.Points[i]) {
			t.Fatalf("row %d: hook point %+v != report point %+v", i, p, rep.Points[i])
		}
	}

	// Resume from a mid-run snapshot: any row the snapshot completed is
	// re-announced before new work, and every row is announced overall.
	snap := interruptAfter(t, spec, 10)
	st := NewState(spec, "")
	if err := st.Restore(snap); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var seenMu sync.Mutex
	if _, err := RunState(context.Background(), spec, st, Hooks{
		OnPoint: func(i int, p SigmaPoint, prot *ProtectedPoint) {
			seenMu.Lock()
			seen[i] = true
			seenMu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(spec.Sigmas) {
		t.Fatalf("resumed run announced %d rows, want %d", len(seen), len(spec.Sigmas))
	}
}
