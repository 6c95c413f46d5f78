package pixel

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func jobSpec() RobustnessSpec {
	return RobustnessSpec{
		Network: "tiny",
		Design:  OO,
		Sigmas:  []float64{0, 1, 3},
		Trials:  8,
		Seed:    11,
		Workers: 2,
	}
}

// TestRobustnessJobResume is the facade-level crash-resume property:
// interrupt a job mid-run, snapshot it, restore into a fresh job with
// the same spec, finish, and the report is byte-identical to the
// one-shot RobustnessContext call.
func TestRobustnessJobResume(t *testing.T) {
	spec := jobSpec()
	straight, err := RobustnessContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(straight)
	if err != nil {
		t.Fatal(err)
	}

	job, err := NewRobustnessJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = job.Run(ctx, RobustnessHooks{
		OnTrial: func(done, total int) {
			if done >= 7 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	done, total := job.Progress()
	if done == 0 || done >= total {
		t.Fatalf("interrupted at %d/%d; need a strict non-empty prefix", done, total)
	}
	snap, err := job.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	spec.Workers = 4 // resuming at a different pool width is legal
	resumed, err := NewRobustnessJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var points int
	rep, err := resumed.Run(context.Background(), RobustnessHooks{
		OnPoint: func(i int, p YieldPoint, prot *ProtectedPoint) { points++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != len(spec.Sigmas) {
		t.Fatalf("OnPoint announced %d points, want %d", points, len(spec.Sigmas))
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs:\n%s\nwant\n%s", got, want)
	}
}

// TestRobustnessJobRejectsForeignSnapshot: snapshots of both job kinds
// are pinned to their spec (network included) and refuse to cross
// experiments with the one public ErrSnapshotMismatch, installing
// nothing.
func TestRobustnessJobRejectsForeignSnapshot(t *testing.T) {
	sweepGrid := Grid([]Design{EE, OO}, []int{2, 4}, []int{4, 8})
	for _, tc := range []struct {
		name       string
		job, other func() (checkpointJob, error)
	}{
		{"robustness",
			func() (checkpointJob, error) { return NewRobustnessJob(jobSpec()) },
			func() (checkpointJob, error) {
				other := jobSpec()
				other.Seed++
				return NewRobustnessJob(other)
			}},
		{"sweep",
			func() (checkpointJob, error) { return NewSweepJob([]string{"LeNet"}, sweepGrid) },
			func() (checkpointJob, error) { return NewSweepJob([]string{"AlexNet"}, sweepGrid) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := tc.job()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := job.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			foreign, err := tc.other()
			if err != nil {
				t.Fatal(err)
			}
			if err := foreign.Restore(snap); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("foreign restore: err = %v, want ErrSnapshotMismatch", err)
			}
			if done, _ := foreign.Progress(); done != 0 {
				t.Fatalf("refused restore left %d slots done", done)
			}
		})
	}
}

// TestSweepJobResume: the sweep job resumes to the same results
// SweepNetworks produces, without re-pricing restored cells.
func TestSweepJobResume(t *testing.T) {
	networks := []string{"LeNet"}
	points := Grid([]Design{EE, OO}, []int{2, 4}, []int{4, 8})
	want, err := NewEngine(EngineOptions{}).SweepNetworks(context.Background(), networks, points, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(EngineOptions{})
	job, err := eng.NewSweepJob(networks, points)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = job.Run(ctx, &SweepOptions{Progress: func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	done, total := job.Progress()
	if done == 0 || done >= total {
		t.Fatalf("interrupted at %d/%d; need a strict non-empty prefix", done, total)
	}
	snap, err := job.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cold := NewEngine(EngineOptions{})
	resumed, err := cold.NewSweepJob(networks, points)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls := cold.CostCalls(); calls != int64(total-done) {
		t.Fatalf("resume priced %d cells, want %d", calls, total-done)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed sweep differs:\ngot  %+v\nwant %+v", got, want)
	}
}
