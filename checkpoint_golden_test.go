package pixel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// checkpointJob is what the two resumable job kinds share.
type checkpointJob interface {
	Snapshot() ([]byte, error)
	Restore(payload []byte) error
	Progress() (done, total int)
}

// goldenJobs are the jobs behind the checkpoint goldens in testdata/:
// payloads an earlier build wrote for a job cut after `cut` slots on
// one worker (serial, so the filled slots are exactly the first cut).
// Deployed jobs-dir files hold such payloads, so they must keep
// restoring, and today's Snapshot of the same state must write them
// byte for byte. Never regenerate them.
var goldenJobs = []struct {
	name, file string
	cut        int
	build      func() (checkpointJob, error)
	run        func(ctx context.Context, job checkpointJob, onDone func(done int)) (any, error)
}{
	{
		name: "sweep", file: "sweep_job.ckpt", cut: 10,
		build: func() (checkpointJob, error) {
			return NewSweepJob([]string{"LeNet", "AlexNet"}, Grid(Designs(), []int{2, 4}, []int{4, 8}))
		},
		run: func(ctx context.Context, job checkpointJob, onDone func(int)) (any, error) {
			return job.(*SweepJob).Run(ctx, &SweepOptions{Workers: 1, Progress: func(done, _ int) { onDone(done) }})
		},
	},
	{
		name: "robustness", file: "robustness_job.ckpt", cut: 13,
		build: func() (checkpointJob, error) {
			return NewRobustnessJob(RobustnessSpec{
				Network: "tiny", Design: OO, Sigmas: []float64{0, 1, 2, 3}, Trials: 8, Seed: 11, Workers: 1,
				Protection: &ProtectionSpec{Scheme: "parity", Retries: 3},
			})
		},
		run: func(ctx context.Context, job checkpointJob, onDone func(int)) (any, error) {
			return job.(*RobustnessJob).Run(ctx, RobustnessHooks{OnTrial: func(done, _ int) { onDone(done) }})
		},
	},
}

// snapshotDirEnv names the directory a re-executed test binary writes
// the cut jobs' snapshots to.
const snapshotDirEnv = "PIXEL_TEST_GOLDEN_SNAPSHOT_DIR"

// TestCheckpointGoldens: the snapshot of a half-done job is
// byte-identical to the golden, and restoring the golden then running
// finishes byte-identical to an uninterrupted run.
//
// encoding/gob numbers types per process in the order they are first
// encoded, so a snapshot's bytes depend on what the process encoded
// before it. The goldens were written by a process that encoded the
// sweep snapshot and then the robustness one, so the cut jobs run in a
// fresh test binary that does just that.
func TestCheckpointGoldens(t *testing.T) {
	if dir := os.Getenv(snapshotDirEnv); dir != "" {
		writeCutSnapshots(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointGoldens$", "-test.count=1")
	cmd.Env = append(os.Environ(), snapshotDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("snapshot process: %v\n%s", err, out)
	}
	for _, g := range goldenJobs {
		t.Run(g.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(filepath.Join(dir, g.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, golden) {
				t.Fatalf("snapshot of the cut job differs from %s (%d vs %d bytes)", g.file, len(snap), len(golden))
			}

			want := finishJSON(t, g.run, g.build, nil)
			got := finishJSON(t, g.run, g.build, golden)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed from %s:\n%s\nwant\n%s", g.file, got, want)
			}
		})
	}
}

// writeCutSnapshots runs each golden job until it is cut and writes its
// snapshot to dir under the golden's file name, in goldenJobs order.
func writeCutSnapshots(t *testing.T, dir string) {
	for _, g := range goldenJobs {
		cut, err := g.build()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := g.run(ctx, cut, func(done int) {
			if done >= g.cut {
				cancel()
			}
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cut run: err = %v, want context.Canceled", g.name, err)
		}
		cancel()
		snap, err := cut.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, g.file), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// finishJSON builds a job, restores payload into it when non-nil, runs
// it to completion and returns the result's JSON.
func finishJSON(t *testing.T, run func(context.Context, checkpointJob, func(int)) (any, error), build func() (checkpointJob, error), payload []byte) []byte {
	t.Helper()
	job, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		if err := job.Restore(payload); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(context.Background(), job, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
