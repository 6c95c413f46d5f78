package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pixel"
	"pixel/api"
	"pixel/internal/jobs"
	"pixel/internal/slots"
)

// goldenFleetTask is what both coordinator job tasks offer the golden
// test: the task itself plus one synchronous shard round over the first
// of two planned shards.
type goldenFleetTask interface {
	jobs.Task
	firstShard(ctx context.Context) error
}

func (t *fleetSweepTask) firstShard(ctx context.Context) error {
	rows, _ := t.cells.MissingRows()
	return t.runSync(ctx, t.planMissing(rows, 2)[0], func(string, any) {})
}

func (t *fleetRobustnessTask) firstShard(ctx context.Context) error {
	return t.runSync(ctx, t.planMissing(t.points.Missing(), 2)[0], func(string, any) {})
}

// TestCoordinatorCheckpointGoldens: coordinator checkpoints written by
// an earlier build — the harvest after the first of two shards landed —
// keep their bytes and keep restoring, so a restarted coordinator
// re-adopts the jobs a deployed -jobs-dir holds. Today's Snapshot of the
// same harvest must write the golden byte for byte, and restoring the
// golden then running must finish byte-identical to an uninterrupted
// run. Never regenerate the goldens.
func TestCoordinatorCheckpointGoldens(t *testing.T) {
	workers := startWorkers(t, 2)
	c := newTestCoordinator(t, Options{Workers: workers})
	robust := api.RobustnessRequest{
		Network: "tiny", Design: "OO", Sigmas: []float64{0, 1, 2, 3}, Trials: 8, Seed: 11,
		Protection: &pixel.ProtectionSpec{Scheme: "parity", Retries: 3},
	}
	for _, tc := range []struct {
		name, file string
		build      func() (goldenFleetTask, error)
	}{
		{"sweep", "fleet_sweep.ckpt", func() (goldenFleetTask, error) { return c.newSweepTask(sweep48()) }},
		{"robustness", "fleet_robustness.ckpt", func() (goldenFleetTask, error) { return c.newRobustnessTask(robust) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			half, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := half.firstShard(context.Background()); err != nil {
				t.Fatal(err)
			}
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, golden) {
				t.Fatalf("snapshot after the first shard differs from %s:\n%s\nwant\n%s", tc.file, snap, golden)
			}

			var results [2][]byte
			for i, payload := range [][]byte{nil, golden} {
				task, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				if payload != nil {
					if err := task.Restore(payload); err != nil {
						t.Fatal(err)
					}
				}
				res, err := task.Run(context.Background(), func(string, any) {})
				if err != nil {
					t.Fatal(err)
				}
				if results[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(results[1], results[0]) {
				t.Fatalf("resumed from %s:\n%s\nwant\n%s", tc.file, results[1], results[0])
			}

			// A torn checkpoint is refused whole and leaves the task empty.
			fresh, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var ck fleetJobCkpt
			if err := json.Unmarshal(golden, &ck); err != nil {
				t.Fatal(err)
			}
			ck.Points = append(ck.Points, ck.Points...)
			ck.Cells = append(ck.Cells, ck.Cells...)
			torn, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(torn); !errors.Is(err, slots.ErrSnapshotMismatch) {
				t.Fatalf("torn checkpoint: err = %v, want ErrSnapshotMismatch", err)
			}
			if done, _ := fresh.Progress(); done != 0 {
				t.Fatalf("refused checkpoint left %d units done", done)
			}
		})
	}
}
