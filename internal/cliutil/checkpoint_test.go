package cliutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pixel"
	"pixel/internal/jobs"
)

// countJob is a Resumable whose snapshot is its done count; a snapshot
// from a job of another total is refused like a foreign spec.
type countJob struct{ done, total int }

func (j *countJob) Progress() (int, int) { return j.done, j.total }

func (j *countJob) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprintf("%d/%d", j.done, j.total)), nil
}

func (j *countJob) Restore(b []byte) error {
	var done, total int
	if _, err := fmt.Sscanf(string(b), "%d/%d", &done, &total); err != nil {
		return err
	}
	if total != j.total {
		return fmt.Errorf("%w: total %d", pixel.ErrSnapshotMismatch, total)
	}
	j.done = done
	return nil
}

// TestRunResumable walks the checkpoint lifecycle the commands share:
// the -resume outcomes, the interrupt save with its exit status, the
// removal on success, and the stderr lines of each.
func TestRunResumable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		noDir      bool
		resume     bool
		stored     string // snapshot file content before the run; "" = none
		interrupt  bool   // cancel ctx mid-run
		runErr     error
		wantErr    string
		wantStatus int
		wantRan    bool
		wantStderr string
		wantFile   string // snapshot file content after; "" = absent
	}{
		{name: "resume needs checkpoint", noDir: true, resume: true,
			wantErr: "-resume requires -checkpoint", wantStatus: 1},
		{name: "no checkpoint dir", noDir: true, wantRan: true},
		{name: "resume with nothing saved", resume: true, wantRan: true,
			wantStderr: "tool: no checkpoint in DIR, starting fresh\n"},
		{name: "resume restores", resume: true, stored: "3/8", wantRan: true,
			wantStderr: "tool: resuming at 3/8 units\n"},
		{name: "resume refuses a foreign snapshot", resume: true, stored: "3/9",
			wantErr: "resume: jobs: restore tool.ckpt: pixel: snapshot does not match this run: total 9", wantStatus: 1, wantFile: "3/9"},
		{name: "stale snapshot ignored without resume", stored: "3/8", wantRan: true},
		{name: "interrupt saves", interrupt: true, wantRan: true,
			wantErr: ErrInterrupted.Error(), wantStatus: 3,
			wantStderr: "tool: 5/8 units checkpointed to DIR\n", wantFile: "5/8"},
		{name: "failure keeps the snapshot", resume: true, stored: "3/8", runErr: errors.New("boom"), wantRan: true,
			wantErr: "boom", wantStatus: 1, wantStderr: "tool: resuming at 3/8 units\n", wantFile: "3/8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := jobs.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stored != "" {
				if err := mgr.SaveBytes("tool.ckpt", []byte(tc.stored)); err != nil {
					t.Fatal(err)
				}
			}
			c := Checkpoint{Tool: "tool", Unit: "units", Dir: dir, Resume: tc.resume, Stderr: &bytes.Buffer{}}
			if tc.noDir {
				c.Dir = ""
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ran := false
			err = RunResumable(ctx, c,
				func() (*countJob, error) { return &countJob{total: 8}, nil },
				func(ctx context.Context, j *countJob) error {
					ran = true
					j.done = 5
					if tc.interrupt {
						cancel()
						<-ctx.Done()
						return ctx.Err()
					}
					if tc.runErr != nil {
						return tc.runErr
					}
					j.done = 8
					return nil
				})
			if got := errString(err); got != tc.wantErr {
				t.Fatalf("err = %q, want %q", got, tc.wantErr)
			}
			if got := ExitStatus(err); got != tc.wantStatus {
				t.Fatalf("exit status = %d, want %d", got, tc.wantStatus)
			}
			if ran != tc.wantRan {
				t.Fatalf("ran = %v, want %v", ran, tc.wantRan)
			}
			if got, want := c.Stderr.(*bytes.Buffer).String(), strings.ReplaceAll(tc.wantStderr, "DIR", dir); got != want {
				t.Fatalf("stderr = %q, want %q", got, want)
			}
			got, err := mgr.Load("tool.ckpt")
			if tc.wantFile == "" {
				if !errors.Is(err, jobs.ErrNotFound) {
					t.Fatalf("snapshot left behind: %q, %v", got, err)
				}
			} else if string(got) != tc.wantFile {
				t.Fatalf("snapshot = %q (%v), want %q", got, err, tc.wantFile)
			}
		})
	}
}

// TestRunResumablePeriodicSave: while the run is in flight the
// snapshot is saved every c.Every.
func TestRunResumablePeriodicSave(t *testing.T) {
	dir := t.TempDir()
	c := Checkpoint{Tool: "tool", Unit: "units", Dir: dir, Every: time.Millisecond, Stderr: &bytes.Buffer{}}
	err := RunResumable(context.Background(), c,
		func() (*countJob, error) { return &countJob{total: 8}, nil },
		func(ctx context.Context, j *countJob) error {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if _, err := os.Stat(filepath.Join(dir, "tool.ckpt")); err == nil {
					return nil
				}
			}
			return errors.New("no periodic snapshot within 10s")
		})
	if err != nil {
		t.Fatal(err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestExitStatus pins the status a command exits with per error.
func TestExitStatus(t *testing.T) {
	for err, want := range map[error]int{
		nil:                                 0,
		ErrInterrupted:                      3,
		fmt.Errorf("x: %w", ErrInterrupted): 3,
		errors.New("failure"):               1,
	} {
		if got := ExitStatus(err); got != want {
			t.Fatalf("ExitStatus(%v) = %d, want %d", err, got, want)
		}
	}
}
