package bitserial

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestSweepVectorMatchesScalar is the asm-vs-scalar acceptance
// property: with the vector kernels forced on, FilterBatch must produce
// exactly the values AND Stats the scalar sweep produces, across
// operand precisions up to the dual store's edge (bits 15 at
// accumulator width 32), batch sizes off the 64-lane and 4-word block
// boundaries, zero-weight runs, and accumulator wraparound; geometries
// past the edge must be refused by the constructor, on every host.
// Where the host (or build) has no kernels the accepted rows skip —
// the purego CI leg proves the scalar path alone, the amd64 leg pins
// the two together.
func TestSweepVectorMatchesScalar(t *testing.T) {
	defer setVecForTest(VectorSweep())

	type config struct {
		bits, terms int
		refused     bool // outside the dual store: construction must fail
	}
	// The dual store holds exactly bits <= 15 and
	// accWidth = 2*bits + ceil(log2 terms) <= 32. terms beyond 1<<18
	// push accWidth past 32 bits at bits 8, and bits 16 is always
	// refused; bits 15 with terms 4 lands on accWidth 32 exactly
	// (operands at the int16 edge), and terms 5 one bit past it.
	configs := []config{
		{bits: 1, terms: 3},
		{bits: 4, terms: 512},
		{bits: 8, terms: 16},
		{bits: 12, terms: 9},
		{bits: 15, terms: 4},
		{bits: 15, terms: 5, refused: true},
		{bits: 8, terms: 1 << 20, refused: true},
		{bits: 16, terms: 4, refused: true},
		{bits: 16, terms: 1 << 18, refused: true},
		{bits: 24, terms: 64, refused: true},
	}
	vec := VectorSweep()
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range configs {
		for _, batch := range []int{1, 3, 8, 63, 64, 65, 100} {
			t.Run(fmt.Sprintf("bits%d/terms%d/B%d", cfg.bits, cfg.terms, batch), func(t *testing.T) {
				be, err := NewBatchedStripes(cfg.bits, cfg.terms)
				if cfg.refused {
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bits %d,", cfg.bits)) {
						t.Fatalf("geometry outside the dual store: error %v, want one naming bits %d", err, cfg.bits)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !vec {
					t.Skip("no vector sweep kernels on this host/build")
				}
				mask := uint64(1)<<uint(cfg.bits) - 1
				// Windows longer than the sized term count wrap the
				// accumulator on both paths; odd lengths pad the last
				// pair.
				n := 1 + rng.Intn(192)
				nFilters := 1 + rng.Intn(7) // full quads and quads padded with zero filters

				windows := make([][]uint64, batch)
				for w := range windows {
					win := make([]uint64, n)
					for i := range win {
						win[i] = rng.Uint64() & mask
					}
					windows[w] = win
				}
				filters := make([][]uint64, nFilters)
				for f := range filters {
					fl := make([]uint64, n)
					for i := range fl {
						if rng.Intn(3) == 0 {
							continue // keep real zero weights in play
						}
						fl[i] = rng.Uint64() & mask
					}
					filters[f] = fl
				}
				run := func(vec bool) ([][]uint64, Stats, error) {
					prev := setVecForTest(vec)
					defer setVecForTest(prev)
					if VectorSweep() != vec {
						t.Fatalf("setVecForTest(%v) did not take", vec)
					}
					outs := make([][]uint64, nFilters)
					for f := range outs {
						outs[f] = make([]uint64, batch)
					}
					st, err := be.FilterBatch(windows, filters, outs)
					return outs, st, err
				}
				vecOuts, vecStats, vecErr := run(true)
				scalOuts, scalStats, scalErr := run(false)
				if (vecErr == nil) != (scalErr == nil) {
					t.Fatalf("error mismatch: vec %v, scalar %v", vecErr, scalErr)
				}
				if vecStats != scalStats {
					t.Fatalf("stats diverge: vec %+v, scalar %+v", vecStats, scalStats)
				}
				for f := range vecOuts {
					for w := range vecOuts[f] {
						if vecOuts[f][w] != scalOuts[f][w] {
							t.Fatalf("outs[%d][%d]: vec %d != scalar %d",
								f, w, vecOuts[f][w], scalOuts[f][w])
						}
					}
				}
			})
		}
	}
}

// TestSweepVectorQuick hammers the vector-vs-scalar equivalence with
// testing/quick-driven random geometry, including degenerate shapes
// (empty windows, single lanes) the table above cannot enumerate.
func TestSweepVectorQuick(t *testing.T) {
	if !VectorSweep() {
		t.Skip("no vector sweep kernels on this host/build")
	}
	defer setVecForTest(true)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(15)
		terms := 1 + rng.Intn(1<<uint(rng.Intn(21)))
		be, err := NewBatchedStripes(bits, terms)
		if err != nil {
			return true // outside the dual store: nothing to compare
		}
		mask := uint64(1)<<uint(bits) - 1
		n := rng.Intn(64)
		batch := 1 + rng.Intn(70)
		nFilters := 1 + rng.Intn(6)
		windows := make([][]uint64, batch)
		for w := range windows {
			win := make([]uint64, n)
			for i := range win {
				win[i] = rng.Uint64() & mask
			}
			windows[w] = win
		}
		filters := make([][]uint64, nFilters)
		for f := range filters {
			fl := make([]uint64, n)
			for i := range fl {
				if rng.Intn(4) != 0 {
					fl[i] = rng.Uint64() & mask
				}
			}
			filters[f] = fl
		}
		outs := func() [][]uint64 {
			o := make([][]uint64, nFilters)
			for f := range o {
				o[f] = make([]uint64, batch)
			}
			return o
		}
		vec, scal := outs(), outs()
		setVecForTest(true)
		vecStats, err1 := be.FilterBatch(windows, filters, vec)
		setVecForTest(false)
		scalStats, err2 := be.FilterBatch(windows, filters, scal)
		setVecForTest(true)
		if (err1 == nil) != (err2 == nil) || vecStats != scalStats {
			return false
		}
		for f := range vec {
			for w := range vec[f] {
				if vec[f][w] != scal[f][w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
