package montecarlo

import (
	"errors"
	"os"
	"strings"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/protect"
	"pixel/internal/slots"
)

// goldenSpec is the spec behind testdata/robustness_job.ckpt at the
// repository root, under the public job's fingerprint key (the network
// name): the tiny net on OO with parity:3.
func goldenSpec(t testing.TB) Spec {
	net, err := BuildNetwork("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model: net.Model, Input: net.Input, Design: arch.OO,
		Bits: net.Bits, Terms: net.Terms,
		Variation:  DefaultVariationModel(),
		Sigmas:     []float64{0, 1, 2, 3},
		Trials:     8,
		Seed:       11,
		Workers:    1,
		Protection: protect.Parity{Retries: 3},
	}
}

// FuzzRestore pins the snapshot boundary: a payload of any bytes never
// panics Restore, which either succeeds or fails with a decode error or
// slots.ErrSnapshotMismatch — and a failed Restore leaves the State
// empty, baseline included. The seeds are the checkpoint golden
// (restored under the spec it was taken from) and its torn variants in
// testdata/fuzz.
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/robustness_job.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	spec := goldenSpec(f)
	if err := NewState(spec, "tiny").Restore(golden); err != nil {
		f.Fatalf("the golden seed must restore, or the fuzzer stops at the fingerprint: %v", err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, payload []byte) {
		st := NewState(spec, "tiny")
		err := st.Restore(payload)
		done, total := st.Progress()
		if err == nil {
			if done > total {
				t.Fatalf("restored %d of %d slots", done, total)
			}
			return
		}
		if !errors.Is(err, slots.ErrSnapshotMismatch) && !strings.HasPrefix(err.Error(), "montecarlo: decode snapshot: ") {
			t.Fatalf("Restore error %v is neither a decode error nor ErrSnapshotMismatch", err)
		}
		if done != 0 || total != len(spec.Sigmas)*spec.Trials || st.haveBaseline {
			t.Fatalf("failed Restore left progress %d/%d, baseline %v", done, total, st.haveBaseline)
		}
	})
}
