package bitserial

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSeededWordsMatchFloat64: over 1M draws each, the seeded source's
// uniforms are those of rand.New(rand.NewSource(seed)).Float64, for 64
// seeds. They include 0, negative seeds and seeds at and past 2^31-1,
// which Seed reduces mod 2^31-1.
func TestSeededWordsMatchFloat64(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 14
	}
	seeds := []int64{0, 1, -1, 2, -2, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
		1 << 40, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for r := rand.New(rand.NewSource(9)); len(seeds) < 64; {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	var b [blockLen]uint64
	for _, seed := range seeds {
		src := seededWords(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k += blockLen {
			src.fill(&b)
			for i, v := range b {
				if u, want := float64(v)/(1<<63), ref.Float64(); u != want || v >= rejectWord {
					t.Fatalf("seed %d draw %d: word %#x, U = %v, want %v", seed, k+i, v, u, want)
				}
			}
		}
	}
}

// lagRef is math/rand's generator run one output at a time from an
// arbitrary state, laid out as in wordSource: output n at ring[n mod
// rngLen]. last is the last word Int63 returned.
type lagRef struct {
	ring [rngLen]uint64
	pos  int
	last uint64
}

func (g *lagRef) Uint64() uint64 {
	x := g.ring[g.pos] + g.ring[(g.pos+rngLen-rngTap)%rngLen]
	g.ring[g.pos] = x
	g.pos = (g.pos + 1) % rngLen
	return x
}

func (g *lagRef) Int63() int64 {
	g.last = g.Uint64() &^ (1 << 63)
	return int64(g.last)
}

func (*lagRef) Seed(int64) {}

// TestSeededWordsRedraw forces the redraw path, which seeds reach about
// once in 2^54 words. It injects a state whose next outputs hold words
// Float64 rejects and checks both source forms word for word against
// Float64 on the same state: a rejected word at the first, a middle
// and the last lane of the next block, two in a row, one in the word
// that tops the block up, and the near misses around the threshold.
func TestSeededWordsRedraw(t *testing.T) {
	const top = 1 << 63
	for _, c := range []struct {
		name  string
		lanes []int
	}{
		{"first", []int{0}},
		{"middle", []int{127}},
		{"last", []int{blockLen - 1}},
		{"adjacent", []int{40, 41}},
		{"top-up", []int{3, blockLen}},
		{"spread", []int{0, 1, 128, blockLen - 1, blockLen, blockLen + 1}},
	} {
		for _, pos := range []int{0, 300, rngLen - 1} {
			t.Run(fmt.Sprintf("%s/pos=%d", c.name, pos), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(pos + len(c.lanes))))
				var ref lagRef
				for i := range ref.ring {
					ref.ring[i] = r.Uint64()
				}
				ref.pos = pos
				// Output m of the next ones is ring[w] + ring[w+rngLen-rngTap]
				// with w = pos+m, both state words while m < rngTap.
				for j, m := range c.lanes {
					want := []uint64{rejectWord, top - 1, top | rejectWord, math.MaxUint64}[j%4]
					w := (pos + m) % rngLen
					ref.ring[w] = want - ref.ring[(w+rngLen-rngTap)%rngLen]
				}
				// A near miss, accepted, right before the first rejection.
				if m := c.lanes[0] - 1; m >= 0 {
					w := (pos + m) % rngLen
					ref.ring[w] = rejectWord - 1 - ref.ring[(w+rngLen-rngTap)%rngLen]
				}
				lagCopy := ref
				seeded := wordSource{ring: &lagCopy.ring, pos: pos}
				rngCopy := ref
				perDraw := wordSource{rng: rand.New(&rngCopy)}
				want := rand.New(&ref)
				var sb, pb [blockLen]uint64
				for block := 0; block < 3; block++ {
					seeded.fill(&sb)
					perDraw.fill(&pb)
					for i := range sb {
						f := want.Float64()
						if u, _ := uniformOf(sb[i]); sb[i] != ref.last || u != f {
							t.Fatalf("block %d lane %d: seeded word %#x (U %v), Float64 took %#x (U %v)", block, i, sb[i], u, ref.last, f)
						}
						if pb[i] != sb[i] {
							t.Fatalf("block %d lane %d: per-draw word %#x, seeded %#x", block, i, pb[i], sb[i])
						}
					}
				}
			})
		}
	}
}

// TestSeededEngineMatchesRand: NewSeededPerturbedEngine injects exactly
// the flips NewPerturbedEngine does on the same seeds, call for call,
// and a stream whose rate draws nothing builds no source.
func TestSeededEngineMatchesRand(t *testing.T) {
	const bits, terms = 4, 600
	mask := uint64(1)<<bits - 1
	cases := rand.New(rand.NewSource(12))
	for _, rates := range []FlipRates{{}, {Mul: 1e-4}, {Mul: 0.05, Acc: 0.01}, {Mul: 0.5, Acc: 1}, {Acc: 0.3}} {
		mulSeed, accSeed := cases.Int63(), -cases.Int63()
		got, err := NewSeededPerturbedEngine(bits, terms, rates, mulSeed, accSeed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewPerturbedEngine(bits, terms, rates,
			rand.New(rand.NewSource(mulSeed)), rand.New(rand.NewSource(accSeed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			p   float64
			src wordSource
		}{{rates.Mul, got.mul.src}, {rates.Acc, got.acc.src}} {
			if built := s.src.ring != nil; built != (s.p > 0 && s.p < 1) {
				t.Errorf("%+v: rate %v built a source: %v", rates, s.p, built)
			}
		}
		for call := 0; call < 200; call++ {
			n := cases.Intn(terms + 1)
			ns, ss := make([]uint64, n), make([]uint64, n)
			for i := range ns {
				ns[i], ss[i] = cases.Uint64()&mask, cases.Uint64()&mask
			}
			gv, _, _ := got.DotProduct(ns, ss)
			rv, _, _ := ref.DotProduct(ns, ss)
			if gv != rv {
				t.Fatalf("%+v call %d: DotProduct %d, want %d", rates, call, gv, rv)
			}
		}
		if stateOf(got.mul) != stateOf(ref.mul) || stateOf(got.acc) != stateOf(ref.acc) {
			t.Errorf("%+v: stream state diverged", rates)
		}
	}
	for _, rates := range []FlipRates{{Mul: -0.1}, {Acc: 1.5}, {Mul: math.NaN()}} {
		if _, err := NewSeededPerturbedEngine(4, 4, rates, 1, 2); err == nil {
			t.Errorf("%+v: no error", rates)
		}
	}
	if _, err := NewSeededPerturbedEngine(0, 4, FlipRates{Mul: 0.5}, 1, 2); err == nil {
		t.Error("bad bits: no error")
	}
}
