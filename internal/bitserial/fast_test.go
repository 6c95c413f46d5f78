package bitserial

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// enginePair builds the gate-model oracle and the fast engine at the
// same geometry.
func enginePair(t testing.TB, bits, terms int) (*Engine, *FastEngine) {
	t.Helper()
	gate, err := NewEngine(bits, terms)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFastEngine(bits, terms)
	if err != nil {
		t.Fatal(err)
	}
	if gate.Bits() != fast.Bits() || gate.AccumulatorWidth() != fast.AccumulatorWidth() {
		t.Fatalf("geometry mismatch: gate %d/%d, fast %d/%d",
			gate.Bits(), gate.AccumulatorWidth(), fast.Bits(), fast.AccumulatorWidth())
	}
	return gate, fast
}

// TestFastEngineEquivalence is the testing/quick property pinning the
// fast engine to the gate-model oracle: for random geometry and random
// in-range vectors, DotProduct returns identical values AND identical
// Stats.
func TestFastEngineEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(16)
		terms := 1 + rng.Intn(200)
		gate, fast := enginePair(t, bits, terms)
		mask := (uint64(1) << uint(bits)) - 1

		// Deliberately allowed to exceed `terms` sometimes
		// so accumulator wraparound is exercised identically.
		ln := 1 + rng.Intn(2*terms)
		ns := make([]uint64, ln)
		ss := make([]uint64, ln)
		for i := range ns {
			ns[i] = rng.Uint64() & mask
			ss[i] = rng.Uint64() & mask
		}
		gv, gst, gerr := gate.DotProduct(ns, ss)
		fv, fst, ferr := fast.DotProduct(ns, ss)
		if gerr != nil || ferr != nil {
			t.Logf("dot errored: %v / %v", gerr, ferr)
			return false
		}
		if gv != fv || gst != fst {
			t.Logf("dot len=%d bits=%d: gate (%d,%+v), fast (%d,%+v)", ln, bits, gv, gst, fv, fst)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFastEngineErrors checks the fast engine rejects exactly what the
// oracle rejects.
func TestFastEngineErrors(t *testing.T) {
	gate, fast := enginePair(t, 4, 8)
	if _, _, err := fast.DotProduct([]uint64{16}, []uint64{1}); err == nil {
		t.Error("out-of-range neuron should error")
	}
	if _, _, err := fast.DotProduct([]uint64{1}, []uint64{16}); err == nil {
		t.Error("out-of-range synapse should error")
	}
	if _, _, err := fast.DotProduct([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := fast.DotProduct([]uint64{1, 99}, []uint64{1, 2}); err == nil {
		t.Error("out-of-range vector element should error")
	}
	// Error parity with the oracle on the same bad input.
	_, _, gerr := gate.DotProduct([]uint64{1, 99}, []uint64{1, 2})
	_, _, ferr := fast.DotProduct([]uint64{1, 99}, []uint64{1, 2})
	if (gerr == nil) != (ferr == nil) || gerr.Error() != ferr.Error() {
		t.Errorf("error parity: gate %q, fast %q", gerr, ferr)
	}
	if _, err := NewFastEngine(0, 1); err == nil {
		t.Error("bits 0 should error")
	}
	if _, err := NewFastEngine(25, 1); err == nil {
		t.Error("bits 25 should error")
	}
	if _, err := NewFastEngine(8, 0); err == nil {
		t.Error("terms 0 should error")
	}
	if _, err := NewFastEngine(24, 1<<17); err == nil {
		t.Error("accumulator wider than 64 bits should error")
	}
}
