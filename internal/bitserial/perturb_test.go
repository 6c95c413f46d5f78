package bitserial

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPerturbedZeroRatesDegeneracy: with both rates zero the perturbed
// engine must return the identical (value, Stats) as FastEngine for
// every dot product, one-element ones included — the σ=0 degeneracy
// the Monte-Carlo engine builds on. The property runs without rand
// streams at all, proving the zero-rate path consumes no randomness.
func TestPerturbedZeroRatesDegeneracy(t *testing.T) {
	const bits, terms = 6, 64
	fast, err := NewFastEngine(bits, terms)
	if err != nil {
		t.Fatal(err)
	}
	pert, err := NewPerturbedEngine(bits, terms, FlipRates{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<bits - 1
	same := func(ns, ss []uint64) bool {
		dv, ds, derr := fast.DotProduct(ns, ss)
		pv, ps, perr := pert.DotProduct(ns, ss)
		return dv == pv && ds == ps && (derr == nil) == (perr == nil)
	}

	f := func(a, b uint64, vec [8][2]uint64) bool {
		if !same([]uint64{a & mask}, []uint64{b & mask}) {
			return false
		}
		ns := make([]uint64, len(vec))
		ss := make([]uint64, len(vec))
		for i, p := range vec {
			ns[i], ss[i] = p[0]&mask, p[1]&mask
		}
		return same(ns, ss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if pert.InjectedFlips() != 0 || pert.BitsExposed() != 0 {
		t.Errorf("zero-rate engine recorded flips=%d bits=%d", pert.InjectedFlips(), pert.BitsExposed())
	}
}

// TestPerturbedInjectsAtRateOne: p=1 flips every product bit, so a
// one-element dot product of 0*0 (product 0) must come back with all
// 2*bits low bits set.
func TestPerturbedInjectsAtRateOne(t *testing.T) {
	pert, err := NewPerturbedEngine(4, 4, FlipRates{Mul: 1}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := pert.DotProduct([]uint64{0}, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(1)<<8 - 1; v != want {
		t.Errorf("all-flip product = %#x, want %#x", v, want)
	}
	if pert.InjectedFlips() != 8 || pert.BitsExposed() != 8 {
		t.Errorf("flips=%d bits=%d, want 8/8", pert.InjectedFlips(), pert.BitsExposed())
	}
}

// TestFlipCountMonotoneInRate is the coupling property the yield
// curves lean on: for a fixed seed, running the same workload at a
// higher flip rate injects at least as many errors. The gap sampler
// consumes exactly one uniform per flip, so the k-th flip's draw is
// shared across rates and flip positions can only move earlier as p
// grows.
func TestFlipCountMonotoneInRate(t *testing.T) {
	const seed = 99
	workload := func(p float64) int64 {
		s := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
		for i := 0; i < 5000; i++ {
			s.apply(0, 16)
		}
		return s.flips
	}
	rates := []float64{0, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 1}
	prev := int64(-1)
	for _, p := range rates {
		n := workload(p)
		if n < prev {
			t.Errorf("flips(%g) = %d < flips(previous rate) = %d: not monotone", p, n, prev)
		}
		prev = n
	}
	if got := workload(1); got != 5000*16 {
		t.Errorf("flips(1) = %d, want %d", got, 5000*16)
	}
}

// TestFlipStreamRateConverges sanity-checks the geometric sampler's
// realized rate against its nominal p.
func TestFlipStreamRateConverges(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1} {
		s := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(3))})
		for i := 0; i < 200000; i++ {
			s.apply(0, 8)
		}
		got := float64(s.flips) / float64(s.bits)
		if got < 0.8*p || got > 1.2*p {
			t.Errorf("realized rate %g for nominal %g", got, p)
		}
	}
}

// TestPerturbedEngineValidation covers the constructor's error paths.
func TestPerturbedEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Mul: -0.1}, rng, rng); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Acc: 1.5}, rng, rng); err == nil {
		t.Error("rate above 1 should error")
	}
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Mul: 0.5}, nil, nil); err == nil {
		t.Error("non-zero Mul without a stream should error")
	}
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Acc: 0.5}, nil, nil); err == nil {
		t.Error("non-zero Acc without a stream should error")
	}
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Mul: 0.5, Acc: 0.5}, rng, rng); err == nil {
		t.Error("one stream shared by both non-zero rates should error")
	}
	if _, err := NewPerturbedEngine(4, 4, FlipRates{Mul: 0.5}, rng, rng); err != nil {
		t.Errorf("a stream shared with an unused rate should be accepted: %v", err)
	}
	if _, err := NewPerturbedEngine(0, 4, FlipRates{}, nil, nil); err == nil {
		t.Error("bad bits should error")
	}
	pe, err := NewPerturbedEngine(4, 4, FlipRates{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.DotProduct([]uint64{16}, []uint64{0}); err == nil {
		t.Error("out-of-range neuron should error")
	}
	if _, _, err := pe.DotProduct([]uint64{0}, []uint64{16}); err == nil {
		t.Error("out-of-range synapse should error")
	}
	if _, _, err := pe.DotProduct([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := pe.DotProduct([]uint64{99}, []uint64{1}); err == nil {
		t.Error("out-of-range vector element should error")
	}
}

// streamState is the part of a flipStream that masks must leave
// exactly as per-word apply calls would.
type streamState struct {
	countdown                    uint64
	flips, words, oddWords, bits int64
}

func stateOf(s *flipStream) streamState {
	return streamState{s.countdown, s.flips, s.words, s.oddWords, s.bits}
}

// TestFlipMasks pins masks to the per-word apply reference: for every
// rate (1e-300 exercises the maxGap clamp), width 1–64 and length
// 0–600, and across call sequences that carry state from one call to
// the next, the masks and every counter must match.
func TestFlipMasks(t *testing.T) {
	rates := []float64{0, 1e-300, 1e-4, 0.05, 0.5, 1}
	cases := rand.New(rand.NewSource(5))
	for _, p := range rates {
		for trial := 0; trial < 40; trial++ {
			seed := cases.Int63()
			got := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
			ref := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
			if p > 0 && trial%2 == 0 {
				// Schedule an early flip, so the gap after it overflows
				// at 1e-300.
				c := uint64(cases.Intn(200))
				got.countdown, ref.countdown = c, c
			}
			for call := 0; call < 8; call++ {
				w := 1 + cases.Intn(64)
				if cases.Intn(3) == 0 {
					v := cases.Uint64()
					if g, r := got.apply(v, w), ref.apply(v, w); g != r {
						t.Fatalf("p=%g call %d: apply diverged", p, call)
					}
					continue
				}
				m := make([]uint64, cases.Intn(601))
				for i := range m {
					m[i] = cases.Uint64() // masks must overwrite, not merge
				}
				got.masks(m, uint64(w))
				for i := range m {
					if want := ref.apply(0, w); m[i] != want {
						t.Fatalf("p=%g call %d width %d: mask[%d] = %#x, want %#x", p, call, w, i, m[i], want)
					}
				}
				if g, r := stateOf(got), stateOf(ref); g != r {
					t.Fatalf("p=%g call %d width %d len %d: state %+v, want %+v", p, call, w, len(m), g, r)
				}
			}
		}
	}
}

// refDotProduct is PerturbedEngine.DotProduct written element by
// element through apply, the form the masks replace.
func refDotProduct(e *PerturbedEngine, neurons, synapses []uint64) uint64 {
	var acc uint64
	for i := range neurons {
		p := e.mul.apply(neurons[i]*synapses[i]&e.base.accMask, e.prodWidth)
		acc = (acc + p) & e.base.accMask
		acc = e.acc.apply(acc, e.base.accWidth)
	}
	return acc
}

// TestPerturbedDotProductMatchesApply runs the masked DotProduct and
// the per-element reference side by side on identically seeded
// engines, interleaving one-element dot products with longer ones,
// and requires identical values and fault counters throughout.
func TestPerturbedDotProductMatchesApply(t *testing.T) {
	const bits, terms = 4, 600
	mask := uint64(1)<<bits - 1
	cases := rand.New(rand.NewSource(11))
	for _, p := range []float64{1e-4, 0.05, 0.5, 1} {
		rates := FlipRates{Mul: p, Acc: p / 2}
		got, err := NewPerturbedEngine(bits, terms, rates, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewPerturbedEngine(bits, terms, rates, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
		for call := 0; call < 50; call++ {
			n := 1
			if cases.Intn(4) != 0 {
				n = cases.Intn(terms + 1)
			}
			ns, ss := make([]uint64, n), make([]uint64, n)
			for i := range ns {
				ns[i], ss[i] = cases.Uint64()&mask, cases.Uint64()&mask
			}
			gv, _, err := got.DotProduct(ns, ss)
			if err != nil {
				t.Fatal(err)
			}
			if rv := refDotProduct(ref, ns, ss); gv != rv {
				t.Fatalf("p=%g call %d: DotProduct %d, want %d", p, call, gv, rv)
			}
		}
		if stateOf(got.mul) != stateOf(ref.mul) || stateOf(got.acc) != stateOf(ref.acc) {
			t.Errorf("p=%g: stream state diverged: mul %+v vs %+v, acc %+v vs %+v", p,
				stateOf(got.mul), stateOf(ref.mul), stateOf(got.acc), stateOf(ref.acc))
		}
		if got.InjectedFlips() == 0 {
			t.Errorf("p=%g: no flips injected", p)
		}
	}
}

// TestFlipCorrect pins correct to masks: for every rate (1e-300 with an
// early flip exercises the maxGap clamp), product width and length, a
// clean sum corrected flip by flip must equal the sum of the masked
// products, and the stream must end in the state masks leaves.
func TestFlipCorrect(t *testing.T) {
	cases := rand.New(rand.NewSource(17))
	for _, p := range []float64{1e-300, 1e-4, 0.05, 0.5, 1} {
		for trial := 0; trial < 40; trial++ {
			seed := cases.Int63()
			got := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
			ref := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
			if trial%2 == 0 {
				c := uint64(cases.Intn(200))
				got.countdown, ref.countdown = c, c
			}
			for call := 0; call < 8; call++ {
				bits := 1 + cases.Intn(24)
				w, accMask := uint64(2*bits), uint64(1)<<(2*bits+10)-1
				n := cases.Intn(300)
				ns, ss := make([]uint64, n), make([]uint64, n)
				var clean uint64
				for i := range ns {
					ns[i], ss[i] = cases.Uint64()>>(64-bits), cases.Uint64()>>(64-bits)
					clean += ns[i] * ss[i]
				}
				m := make([]uint64, n)
				ref.masks(m, w)
				var want uint64
				for i := range ns {
					want += ns[i]*ss[i] ^ m[i]
				}
				if v := got.correct(clean, ns, ss, w, accMask); v != want&accMask {
					t.Fatalf("p=%g call %d: corrected %d, want %d", p, call, v, want&accMask)
				}
				if g, r := stateOf(got), stateOf(ref); g != r {
					t.Fatalf("p=%g call %d width %d len %d: state %+v, want %+v", p, call, w, n, g, r)
				}
			}
		}
	}
}
