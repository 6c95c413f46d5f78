package bitserial

import (
	"math/rand"
	"strings"
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

// TestFastEngineErrors checks the fast and perturbed engines reject
// exactly what the oracle rejects, with the oracle's error text: the
// first bad index wins, and at one index the neuron is reported before
// the synapse.
func TestFastEngineErrors(t *testing.T) {
	gate, fast := enginePair(t, 4, 8)
	pert, err := NewPerturbedEngine(4, 8, FlipRates{Mul: 0.1, Acc: 0.1},
		rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		ns, ss   []uint64
		wantText string
	}{
		{"neuron first", []uint64{16, 1, 2}, []uint64{1, 2, 3}, "neuron 16"},
		{"neuron last", []uint64{1, 2, 99}, []uint64{1, 2, 3}, "neuron 99"},
		{"synapse", []uint64{1, 2, 3}, []uint64{1, 40, 3}, "synapse 40"},
		{"neuron and synapse at one index", []uint64{1, 20, 3}, []uint64{1, 30, 3}, "neuron 20"},
		{"two bad indices", []uint64{1, 2, 3, 50}, []uint64{1, 60, 3, 4}, "synapse 60"},
		{"length mismatch", []uint64{1}, []uint64{1, 2}, "lengths differ"},
	} {
		_, _, gerr := gate.DotProduct(c.ns, c.ss)
		if gerr == nil || !strings.Contains(gerr.Error(), c.wantText) {
			t.Fatalf("%s: gate error %v, want one naming %q", c.name, gerr, c.wantText)
		}
		for name, e := range map[string]Stripes{"fast": fast, "perturbed": pert} {
			if _, _, err := e.DotProduct(c.ns, c.ss); err == nil || err.Error() != gerr.Error() {
				t.Errorf("%s: %s error %v, want %q", c.name, name, err, gerr)
			}
		}
	}
	if pert.BitsExposed() != 0 {
		t.Errorf("rejected calls exposed %d bits", pert.BitsExposed())
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
