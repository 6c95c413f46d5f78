package sweep

import (
	"errors"
	"os"
	"strings"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/slots"
)

// goldenJobs is the job list behind testdata/sweep_job.ckpt at the
// repository root: LeNet then AlexNet over EE, OE, OO × lanes {2, 4} ×
// bits {4, 8}.
func goldenJobs() []Job {
	var jobs []Job
	for _, net := range []string{"LeNet", "AlexNet"} {
		for _, p := range Grid([]arch.Design{arch.EE, arch.OE, arch.OO}, []int{2, 4}, []int{4, 8}) {
			jobs = append(jobs, Job{Network: net, Point: p})
		}
	}
	return jobs
}

// FuzzRestore pins the snapshot boundary: a payload of any bytes never
// panics Restore, which either succeeds or fails with a decode error or
// slots.ErrSnapshotMismatch — and a failed Restore leaves the State
// empty. The seeds are the checkpoint golden (restored into the job
// list it was taken over) and its torn variants in testdata/fuzz.
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/sweep_job.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	jobs := goldenJobs()
	if err := NewState(jobs).Restore(golden); err != nil {
		f.Fatalf("the golden seed must restore, or the fuzzer stops at the fingerprint: %v", err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, payload []byte) {
		st := NewState(jobs)
		err := st.Restore(payload)
		done, total := st.Progress()
		if err == nil {
			if done > total {
				t.Fatalf("restored %d of %d slots", done, total)
			}
			return
		}
		if !errors.Is(err, slots.ErrSnapshotMismatch) && !strings.HasPrefix(err.Error(), "sweep: decode snapshot: ") {
			t.Fatalf("Restore error %v is neither a decode error nor ErrSnapshotMismatch", err)
		}
		if done != 0 || total != len(jobs) {
			t.Fatalf("failed Restore left progress %d/%d", done, total)
		}
	})
}
