package bitserial_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/protect"
)

// walkRate folds a fuzzed float into a flip rate in [0, 1]: 0, 1, a
// NaN or an infinity keep their edge, anything else its fraction.
func walkRate(x float64) float64 {
	switch {
	case math.IsNaN(x) || x <= 0:
		return 0
	case x >= 1 || math.IsInf(x, 1):
		return 1
	}
	return x
}

// FuzzFlipWalk holds the walk to the per-call engine. For a random
// geometry, pair of rates, seed and scheme (none, tmr, parity:2), three
// identically seeded engines run the same sequence of random calls:
// one walks FastEngine's clean value of each call (DotFromClean), one
// runs DotProduct, and one runs the per-element apply reference. Every
// call's value, and at the end InjectedFlips, OddFlipWords,
// BitsExposed and the scheme's Counters, must agree.
func FuzzFlipWalk(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(512), 1e-3, 1e-3, uint8(0), uint8(40))
	f.Add(int64(2), uint8(4), uint16(512), 0.02, 0.0, uint8(1), uint8(40))
	f.Add(int64(3), uint8(8), uint16(300), 0.2, 0.05, uint8(2), uint8(30))
	f.Add(int64(4), uint8(24), uint16(1), 1.0, 0.5, uint8(1), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, bits uint8, terms uint16, mul, acc float64, scheme, calls uint8) {
		b := 1 + int(bits)%24
		n := 1 + int(terms)%600
		fast, err := bitserial.NewFastEngine(b, n)
		if err != nil {
			t.Skip() // the accumulator outgrows 64 bits
		}
		rates := bitserial.FlipRates{Mul: walkRate(mul), Acc: walkRate(acc)}
		var s protect.Scheme
		switch scheme % 3 {
		case 1:
			s = protect.TMR()
		case 2:
			s = protect.Parity{Retries: 2}
		}
		build := func(apply bool) (*bitserial.PerturbedEngine, bitserial.Stripes) {
			e, err := bitserial.NewSeededPerturbedEngine(b, n, rates, seed, ^seed)
			if err != nil {
				t.Fatal(err)
			}
			var st bitserial.Stripes = e
			if apply {
				st = bitserial.ApplyEngine(e)
			}
			if s != nil {
				if st, err = s.Wrap(st); err != nil {
					t.Fatal(err)
				}
			}
			return e, st
		}
		walkEng, walker := build(false)
		callEng, caller := build(false)
		refEng, ref := build(true)
		walk := walker.(bitserial.Walker)
		ops := rand.New(rand.NewSource(seed))
		mask := uint64(1)<<b - 1
		for c := 0; c < int(calls)%64; c++ {
			ns, ss := make([]uint64, ops.Intn(n+1)), make([]uint64, 0, n)
			for i := range ns {
				ns[i] = ops.Uint64() & mask
				ss = append(ss, ops.Uint64()&mask)
			}
			clean, _, err := fast.DotProduct(ns, ss)
			if err != nil {
				t.Fatal(err)
			}
			got, err := walk.DotFromClean(func() []uint64 { return ns }, ss, clean)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := caller.DotProduct(ns, ss)
			if err != nil {
				t.Fatal(err)
			}
			rv, _, err := ref.DotProduct(ns, ss)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || want != rv {
				t.Fatalf("call %d (n=%d): walk %d, DotProduct %d, apply %d", c, len(ns), got, want, rv)
			}
		}
		state := func(e *bitserial.PerturbedEngine, st bitserial.Stripes) string {
			var c protect.Counters
			if m, ok := st.(protect.Metered); ok {
				c = m.Counters()
			}
			return fmt.Sprintf("flips %d odd %d exposed %d counters %+v",
				e.InjectedFlips(), e.OddFlipWords(), e.BitsExposed(), c)
		}
		w, d, r := state(walkEng, walker), state(callEng, caller), state(refEng, ref)
		if w != d || d != r {
			t.Fatalf("after the calls:\nwalk        %s\nDotProduct  %s\napply       %s", w, d, r)
		}
	})
}
