package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/slots"
)

// interruptSweep runs jobs on a fresh engine until about k points have
// been priced, then cancels and snapshots the partial state.
func interruptSweep(t *testing.T, jobs []Job, k, workers int) []byte {
	t.Helper()
	e := New(Options{Workers: workers})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := NewState(jobs)
	_, err := e.RunState(ctx, jobs, st, RunOptions{
		Progress: func(done, total int) {
			if done >= k {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
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

// TestSweepResumeBitExact: kill a sweep mid-grid, resume its snapshot
// on a COLD engine (no memoized results to lean on) at a different
// worker count, and the merged output must be byte-identical to an
// uninterrupted run.
func TestSweepResumeBitExact(t *testing.T) {
	jobs := jobsFor("LeNet", grid4x4())

	straight, err := New(Options{Workers: 2}).Run(context.Background(), jobs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(straight)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                      string
		cutAt                     int
		cutWorkers, resumeWorkers int
	}{
		{"serial", 3, 1, 1},
		{"parallel", 7, 4, 4},
		{"repool", 5, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := interruptSweep(t, jobs, tc.cutAt, tc.cutWorkers)
			st := NewState(jobs)
			if err := st.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restored, _ := st.Progress()
			e := New(Options{Workers: tc.resumeWorkers})
			got, err := e.RunState(context.Background(), jobs, st, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// The restored prefix must not be re-priced.
			if calls := e.CostCalls(); calls != int64(len(jobs)-restored) {
				t.Fatalf("resume priced %d points, want %d (restored %d of %d)",
					calls, len(jobs)-restored, restored, len(jobs))
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotJSON, want) {
				t.Fatalf("resumed sweep differs from straight run:\n%s\nwant\n%s", gotJSON, want)
			}
		})
	}
}

// TestSweepResumeProgressCumulative: a resumed run reports restored
// slots as already done, and the count climbs to the full total.
func TestSweepResumeProgressCumulative(t *testing.T) {
	jobs := jobsFor("LeNet", grid4x4())
	snap := interruptSweep(t, jobs, 4, 2)
	st := NewState(jobs)
	if err := st.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored, _ := st.Progress()
	var first, last int
	_, err := New(Options{Workers: 1}).RunState(context.Background(), jobs, st, RunOptions{
		Progress: func(done, total int) {
			if first == 0 {
				first = done
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != restored {
		t.Fatalf("first progress report = %d, want restored count %d", first, restored)
	}
	if last != len(jobs) {
		t.Fatalf("final progress report = %d, want %d", last, len(jobs))
	}
}

// TestSweepRestoreRejectsForeignSnapshot: a snapshot refuses a
// different grid, a reordered grid, and torn payloads.
func TestSweepRestoreRejectsForeignSnapshot(t *testing.T) {
	jobs := jobsFor("LeNet", grid4x4())
	snap := interruptSweep(t, jobs, 4, 2)

	if err := NewState(jobs[:len(jobs)-1]).Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("shorter grid: err = %v, want ErrSnapshotMismatch", err)
	}
	reordered := append([]Job(nil), jobs...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := NewState(reordered).Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("reordered grid: err = %v, want ErrSnapshotMismatch", err)
	}
	otherNet := jobsFor("AlexNet", grid4x4())
	if err := NewState(otherNet).Restore(snap); !errors.Is(err, slots.ErrSnapshotMismatch) {
		t.Fatalf("different network: err = %v, want ErrSnapshotMismatch", err)
	}
	if err := NewState(jobs).Restore(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}

	// A snapshot with the right fingerprint but a torn slot list is
	// refused whole: nothing of it may land, or a from-scratch rerun of
	// the same State would keep its slots as zero-cost cells.
	st := NewState(jobs)
	for name, torn := range map[string]sweepSnapshotV1{
		"duplicate slot": {DoneSlots: []int{0, 1, 1}, Costs: make([]arch.NetworkCost, 3)},
		"slot off grid":  {DoneSlots: []int{0, 1, len(jobs)}, Costs: make([]arch.NetworkCost, 3)},
		"count mismatch": {DoneSlots: []int{0, 1}, Costs: make([]arch.NetworkCost, 1)},
		"other total":    {Total: len(jobs) + 1, DoneSlots: []int{0}, Costs: make([]arch.NetworkCost, 1)},
	} {
		torn.Fingerprint = st.fp
		if torn.Total == 0 {
			torn.Total = len(jobs)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(torn); err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(buf.Bytes()); !errors.Is(err, slots.ErrSnapshotMismatch) {
			t.Fatalf("%s: err = %v, want ErrSnapshotMismatch", name, err)
		}
		if done, total := st.Progress(); done != 0 || total != len(jobs) {
			t.Fatalf("%s: rejected restore left progress %d/%d, want 0/%d", name, done, total, len(jobs))
		}
	}
}

// TestFingerprintFormat pins the bytes the job-list fingerprint hashes:
// snapshots persisted by earlier builds must keep restoring.
func TestFingerprintFormat(t *testing.T) {
	jobs := []Job{
		{Network: "LeNet", Point: Point{Design: arch.OO, Lanes: 4, Bits: 8}},
		{Network: "AlexNet", Point: Point{Design: arch.EE, Lanes: 16, Bits: 12}},
	}
	if got, want := fingerprintJobs(jobs), sha256.Sum256([]byte("sweep-v1|2|LeNet|OO/L4/B8|AlexNet|EE/L16/B12")); got != want {
		t.Fatalf("fingerprint = %x, want %x", got, want)
	}
	if got, want := fingerprintJobs(nil), sha256.Sum256([]byte("sweep-v1|0")); got != want {
		t.Fatalf("empty fingerprint = %x, want %x", got, want)
	}
}

// TestRunOnJobHook: every slot fires OnJob exactly once with the cost
// the final slice carries, and a resumed run announces restored slots
// up front in slot order before pricing the remainder.
func TestRunOnJobHook(t *testing.T) {
	jobs := jobsFor("LeNet", grid4x4())

	t.Run("fresh", func(t *testing.T) {
		e := New(Options{Workers: 4})
		seen := make(map[int]arch.NetworkCost)
		costs, err := e.Run(context.Background(), jobs, RunOptions{
			OnJob: func(i int, c arch.NetworkCost) {
				if _, dup := seen[i]; dup {
					t.Errorf("slot %d announced twice", i)
				}
				seen[i] = c
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(jobs) {
			t.Fatalf("OnJob fired for %d slots, want %d", len(seen), len(jobs))
		}
		for i, c := range costs {
			if !reflect.DeepEqual(seen[i], c) {
				t.Fatalf("slot %d: hook cost differs from result slice", i)
			}
		}
	})

	t.Run("resumed", func(t *testing.T) {
		snap := interruptSweep(t, jobs, 5, 2)
		st := NewState(jobs)
		if err := st.Restore(snap); err != nil {
			t.Fatal(err)
		}
		restored, _ := st.Progress()
		var order []int
		seen := make(map[int]bool)
		e := New(Options{Workers: 2})
		if _, err := e.RunState(context.Background(), jobs, st, RunOptions{
			OnJob: func(i int, c arch.NetworkCost) {
				if seen[i] {
					t.Errorf("slot %d announced twice", i)
				}
				seen[i] = true
				order = append(order, i)
			},
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(jobs) {
			t.Fatalf("OnJob fired for %d slots, want %d", len(seen), len(jobs))
		}
		// The first `restored` announcements are the snapshot's slots in
		// ascending order, before any fresh pricing lands.
		for k := 1; k < restored; k++ {
			if order[k-1] >= order[k] {
				t.Fatalf("restored slots announced out of order: %v (first %d should ascend)", order, restored)
			}
		}
	})
}
