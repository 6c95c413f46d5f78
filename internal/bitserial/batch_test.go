package bitserial

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestBatchedStripesEquivalence is the acceptance property: a
// FilterBatch over B windows and F filters equals the B*F independent
// FastEngine.DotProduct calls it stands in for — values and Stats —
// for B in {1, 3, 8, 64} and across the 64-lane group boundary.
// Windows longer than the sized term count exercise the accumulator
// wraparound on both paths.
func TestBatchedStripesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, batch := range []int{1, 3, 8, 64, 100} {
		for _, bits := range []int{1, 2, 4, 8, 12} {
			t.Run(fmt.Sprintf("B%d/bits%d", batch, bits), func(t *testing.T) {
				terms := 1 + rng.Intn(16)
				be, err := NewBatchedStripes(bits, terms)
				if err != nil {
					t.Fatal(err)
				}
				fe := be.fe
				mask := uint64(1)<<uint(bits) - 1
				// Up to 4x the sized term count: sums can wrap.
				n := rng.Intn(4*terms + 1)
				nFilters := 1 + rng.Intn(3)

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
				outs := make([][]uint64, nFilters)
				for f := range outs {
					outs[f] = make([]uint64, batch)
				}

				got, err := be.FilterBatch(windows, filters, outs)
				if err != nil {
					t.Fatal(err)
				}
				var want Stats
				for f, filter := range filters {
					for w, win := range windows {
						v, st, err := fe.DotProduct(win, filter)
						if err != nil {
							t.Fatal(err)
						}
						want.add(st)
						if outs[f][w] != v {
							t.Fatalf("outs[%d][%d] = %d, want %d", f, w, outs[f][w], v)
						}
					}
				}
				if got != want {
					t.Fatalf("stats = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestDotProductsMatchesSequential covers the single-filter entry
// point: DotProducts writes every window's sequential dot product, and
// refuses an out slice whose length is not the window count.
func TestDotProductsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	be, err := NewBatchedStripes(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([][]uint64, 17)
	for w := range windows {
		win := make([]uint64, 32)
		for i := range win {
			win[i] = rng.Uint64() & 15
		}
		windows[w] = win
	}
	weights := make([]uint64, 32)
	for i := range weights {
		weights[i] = rng.Uint64() & 15
	}
	out := make([]uint64, len(windows))
	if err := be.DotProducts(windows, weights, out); err != nil {
		t.Fatal(err)
	}
	for w, win := range windows {
		v, _, err := be.fe.DotProduct(win, weights)
		if err != nil {
			t.Fatal(err)
		}
		if out[w] != v {
			t.Fatalf("window %d: batch %d, want %d", w, out[w], v)
		}
	}
	if err := be.DotProducts(windows, weights, out[1:]); err == nil {
		t.Fatal("DotProducts accepted a short out slice")
	}
}

// TestBatchedStripesErrors proves the batched path rejects exactly what
// the sequential path rejects: over-range operands, ragged windows and
// mis-sized outputs.
func TestBatchedStripesErrors(t *testing.T) {
	be, err := NewBatchedStripes(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]uint64{{1, 2}, {3, 4}}
	weights := []uint64{5, 6}
	out := make([]uint64, 2)

	cases := []struct {
		name    string
		windows [][]uint64
		filters [][]uint64
		outs    [][]uint64
	}{
		{"over-range neuron", [][]uint64{{1, 2}, {16, 4}}, [][]uint64{weights}, [][]uint64{out}},
		{"over-range synapse", good, [][]uint64{{5, 99}}, [][]uint64{out}},
		{"ragged window", [][]uint64{{1, 2}, {3}}, [][]uint64{weights}, [][]uint64{out}},
		{"weights length", good, [][]uint64{{5}}, [][]uint64{out}},
		{"out length", good, [][]uint64{weights}, [][]uint64{make([]uint64, 1)}},
		{"outs rows", good, [][]uint64{weights}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := be.FilterBatch(tc.windows, tc.filters, tc.outs); err == nil {
				t.Fatal("batched call unexpectedly succeeded")
			}
		})
	}

	// The sequential oracle rejects the operand cases too.
	if _, _, err := be.fe.DotProduct([]uint64{16, 4}, weights); err == nil {
		t.Fatal("sequential path accepted an over-range neuron")
	}
	if _, _, err := be.fe.DotProduct([]uint64{1, 2}, []uint64{5, 99}); err == nil {
		t.Fatal("sequential path accepted an over-range synapse")
	}
}

// TestBatchedStripesConcurrent hammers one shared engine from many
// goroutines (pooled scratch must not be shared across calls); run
// under -race.
func TestBatchedStripesConcurrent(t *testing.T) {
	be, err := NewBatchedStripes(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	windows := make([][]uint64, 64)
	for w := range windows {
		win := make([]uint64, 48)
		for i := range win {
			win[i] = rng.Uint64() & 15
		}
		windows[w] = win
	}
	weights := make([]uint64, 48)
	for i := range weights {
		weights[i] = rng.Uint64() & 15
	}
	want := make([]uint64, len(windows))
	if err := be.DotProducts(windows, weights, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint64, len(windows))
			for iter := 0; iter < 50; iter++ {
				if err := be.DotProducts(windows, weights, out); err != nil {
					t.Error(err)
					return
				}
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("concurrent result diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
