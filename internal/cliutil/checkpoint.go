package cliutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"pixel/internal/jobs"
)

// ErrInterrupted marks a SIGINT exit with the checkpoint flushed;
// ExitStatus maps it to status 3 so scripts can distinguish "resume me"
// from failure.
var ErrInterrupted = errors.New("interrupted; checkpoint saved, rerun with -resume to finish")

// ExitStatus is a command's exit status for the error its run returned:
// 0 on success, 3 after an interrupt with the checkpoint saved, 1 for
// any other failure.
func ExitStatus(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrInterrupted):
		return 3
	default:
		return 1
	}
}

// Resumable is a job whose completed work checkpoints: a
// pixel.RobustnessJob or pixel.SweepJob.
type Resumable interface {
	jobs.Checkpointable
	Progress() (done, total int)
}

// Checkpoint is a command's -checkpoint, -resume and -checkpoint-every
// settings.
type Checkpoint struct {
	// Tool prefixes every stderr line and names the snapshot file,
	// <Dir>/<Tool>.ckpt.
	Tool string
	// Unit is the progress noun of the stderr lines ("trials").
	Unit string
	// Dir is the snapshot directory; empty disables checkpointing.
	Dir string
	// Resume restores the snapshot in Dir before the run.
	Resume bool
	// Every is the periodic snapshot cadence while running; <= 0 saves
	// only on interrupt.
	Every time.Duration
	// Stderr receives the lifecycle lines; nil means os.Stderr.
	Stderr io.Writer
}

// RunResumable builds a job and runs it through the checkpoint
// lifecycle the commands share:
//
//   - -resume needs -checkpoint, checked before the job is built;
//   - -resume with no snapshot starts fresh, a snapshot restores, and
//     a corrupt or mismatched one fails the command rather than quietly
//     redo everything;
//   - while run is in flight the snapshot is saved every c.Every;
//   - SIGINT (or ctx ending) cancels run; the completed work is saved
//     and ErrInterrupted returned;
//   - on success the snapshot is removed, so a stale file cannot
//     hijack the next -resume in the same directory.
func RunResumable[J Resumable](ctx context.Context, c Checkpoint, build func() (J, error), run func(context.Context, J) error) error {
	stderr := c.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	if c.Resume && c.Dir == "" {
		return errors.New("-resume requires -checkpoint")
	}
	job, err := build()
	if err != nil {
		return err
	}

	name := c.Tool + ".ckpt"
	var mgr *jobs.Manager
	if c.Dir != "" {
		if mgr, err = jobs.NewManager(c.Dir); err != nil {
			return err
		}
		if c.Resume {
			switch err := mgr.LoadInto(name, job); {
			case errors.Is(err, jobs.ErrNotFound):
				fmt.Fprintf(stderr, "%s: no checkpoint in %s, starting fresh\n", c.Tool, c.Dir)
			case err != nil:
				return fmt.Errorf("resume: %w", err)
			default:
				done, total := job.Progress()
				fmt.Fprintf(stderr, "%s: resuming at %d/%d %s\n", c.Tool, done, total, c.Unit)
			}
		}
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	// The saver has exited before the final save or the removal below,
	// so a late tick can neither overwrite the one nor undo the other.
	stopSave, saverDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(saverDone)
		if mgr == nil || c.Every <= 0 {
			return
		}
		t := time.NewTicker(c.Every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := mgr.Save(name, job); err != nil {
					fmt.Fprintf(stderr, "%s: checkpoint failed: %v\n", c.Tool, err)
				}
			case <-stopSave:
				return
			}
		}
	}()
	err = run(ctx, job)
	close(stopSave)
	<-saverDone

	switch {
	case err != nil && mgr != nil && errors.Is(err, context.Canceled):
		if serr := mgr.Save(name, job); serr != nil {
			return fmt.Errorf("interrupted, and the final checkpoint failed: %w", serr)
		}
		done, total := job.Progress()
		fmt.Fprintf(stderr, "%s: %d/%d %s checkpointed to %s\n", c.Tool, done, total, c.Unit, c.Dir)
		return ErrInterrupted
	case err != nil:
		return err
	case mgr != nil:
		if err := mgr.Remove(name); err != nil {
			fmt.Fprintf(stderr, "%s: remove checkpoint: %v\n", c.Tool, err)
		}
	}
	return nil
}
