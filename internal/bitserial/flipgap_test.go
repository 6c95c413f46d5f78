package bitserial

import (
	"math"
	"math/rand"
	"testing"
)

// fixedSource is a rand.Source whose every Int63 is the same value, so
// a stream built on it draws one chosen uniform U = v/2^63 per gap.
type fixedSource int64

func (s fixedSource) Int63() int64 { return int64(s) }
func (fixedSource) Seed(int64)     {}

// uniformOf is the U that rand.Float64 derives from the 63-bit v, and
// false where Float64 would reject it (v/2^63 rounds to 1).
func uniformOf(v uint64) (float64, bool) {
	u := float64(v&(1<<63-1)) / (1 << 63)
	return u, u < 1
}

// refGap is the reference gap floor(math.Log(x)/lp), clamped to
// maxGap, written out here so that the tests do not lean on exactGap.
func refGap(x, lp float64) uint64 {
	g := math.Floor(math.Log(x) / lp)
	if !(g >= 0) || g > float64(maxGap) {
		return maxGap
	}
	return uint64(g)
}

// firstGap builds a stream at rate p whose every draw is the uniform of
// v and returns its first gap: the countdown refill set up.
func firstGap(p float64, v uint64) uint64 {
	return newFlipStream(p, rand.New(fixedSource(v&(1<<63-1)))).countdown
}

// TestFlipGapsMatchExactLog: every gap a stream draws, the first one
// (its countdown) included, is the reference floor(math.Log(1-U)/lp)
// with its maxGap clamp, across rates from 1e-15 to 0.999999.
func TestFlipGapsMatchExactLog(t *testing.T) {
	const gaps = 500_000
	for _, p := range []float64{1e-15, 1e-9, 1e-4, 0.01, 0.05, 0.3, 0.9, 0.999999} {
		for _, seed := range []int64{1, 2, 3} {
			s := newFlipStream(p, rand.New(rand.NewSource(seed)))
			ref := rand.New(rand.NewSource(seed))
			lp := math.Log1p(-p)
			got := s.countdown
			for k := 0; k < gaps; k++ {
				if want := refGap(1-ref.Float64(), lp); got != want {
					t.Fatalf("p=%g seed=%d gap %d = %d, want %d", p, seed, k, got, want)
				}
				got = s.gap()
			}
		}
	}
}

// TestFlipGapEdges pins the draws at the ends of the uniform's range
// and the p >= 1 stream, which draws nothing.
func TestFlipGapEdges(t *testing.T) {
	// At 1e-19 the quotient of the smallest 1-U passes 2^63.
	for _, p := range []float64{1e-300, 1e-19, 1e-15, 0.01, 0.5, 0.999999, math.Nextafter(1, 0)} {
		lp := math.Log1p(-p)
		// U = 0 makes 1-U = 1: a zero gap, never certified.
		if got := firstGap(p, 0); got != 0 {
			t.Errorf("p=%g U=0: gap %d, want 0", p, got)
		}
		if _, ok := certifiedGap(fastLog(1), 1/lp); ok {
			t.Errorf("p=%g: x=1 certified", p)
		}
		// The largest U below 1, 1-2^-53, gives the smallest 1-U.
		v := uint64(1<<63 - 1<<10)
		if u, _ := uniformOf(v); 1-u != 0x1p-53 {
			t.Fatalf("1-U = %g, want 2^-53", 1-u)
		}
		if got, want := firstGap(p, v), refGap(0x1p-53, lp); got != want {
			t.Errorf("p=%g 1-U=2^-53: gap %d, want %d", p, got, want)
		}
	}
	// A p so small that 1/lp overflows leaves every gap to exactGap,
	// which clamps at maxGap.
	if got := firstGap(5e-324, 1<<62); got != maxGap {
		t.Errorf("p=5e-324: gap %d, want maxGap", got)
	}
	for _, p := range []float64{1, math.Inf(1)} {
		rng := rand.New(rand.NewSource(7))
		s := newFlipStream(p, rng)
		for k := 0; k < 3*len(s.gaps); k++ {
			if g := s.gap(); g != 0 {
				t.Fatalf("p=%g gap %d = %d, want 0", p, k, g)
			}
		}
		if got, want := rng.Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
			t.Errorf("p=%g stream consumed randomness", p)
		}
	}
}

// TestFlipGapNearIntegerFallsBack builds draws whose exact quotient
// math.Log(1-U)/lp sits within a few ulps of an integer. No slack can
// certify those, so certifiedGap must decline them and the stream must
// still return the exact floor.
func TestFlipGapNearIntegerFallsBack(t *testing.T) {
	found := 0
	for _, p := range []float64{1e-3, 0.01, 0.05, 0.3} {
		lp := math.Log1p(-p)
		for n := 1.0; n*lp > -0.69; n++ {
			// x = exp(n*lp) lies in (0.5, 1), where U = 1-x is exact
			// and is v/2^63 for an integer v.
			x0 := math.Exp(n * lp)
			for x, step := x0, 0; step < 16; x, step = math.Nextafter(x, 0), step+1 {
				r := math.Log(x) / lp
				if math.Abs(r-n) > 4*ulp(r) {
					continue
				}
				found++
				if _, ok := certifiedGap(fastLog(x), 1/lp); ok {
					t.Errorf("p=%g x=%v quotient %v (n=%v) certified", p, x, r, n)
				}
				v := uint64((1 - x) * (1 << 63))
				if u, _ := uniformOf(v); 1-u != x {
					t.Fatalf("x=%v not drawn exactly", x)
				}
				if got, want := firstGap(p, v), refGap(x, lp); got != want {
					t.Errorf("p=%g x=%v: gap %d, want %d", p, x, got, want)
				}
			}
		}
	}
	if found < 100 {
		t.Fatalf("only %d near-integer quotients built", found)
	}
}

func ulp(v float64) float64 { return math.Nextafter(math.Abs(v), math.Inf(1)) - math.Abs(v) }

// TestFastLogErrorBound: in every table cell and every binade 2^-64..2^0
// of the argument, fastLog stays within 1/64 of the slack certifiedGap
// allows, taken in log units: (|log x|*gapSlackRel + gapSlackAbs)/64.
func TestFastLogErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const cellSpan = 1 << (52 - logTabBits)
	worst := 0.0
	for k := -64; k <= 0; k++ {
		for i := range logTab {
			base := uint64(logOff + i*cellSpan)
			offs := []uint64{0, 1, cellSpan / 2, cellSpan - 1}
			for j := 0; j < 64; j++ {
				offs = append(offs, uint64(rng.Int63n(cellSpan)))
			}
			for _, off := range offs {
				x := math.Ldexp(math.Float64frombits(base+off), k)
				want := math.Log(x)
				slack := (math.Abs(want)*gapSlackRel + gapSlackAbs) / 64
				err := math.Abs(fastLog(x) - want)
				if err > slack {
					t.Fatalf("fastLog(%v) = %v, math.Log %v: error %g over %g", x, fastLog(x), want, err, slack)
				}
				worst = max(worst, err/slack)
			}
		}
	}
	t.Logf("worst error: %.3g of the 1/64 slack", worst)
}

// FuzzFlipGap: for any rate in (0, 1) and any 63-bit draw, the stream's
// gap is the exact reference gap.
func FuzzFlipGap(f *testing.F) {
	for _, c := range [][2]uint64{
		{math.Float64bits(0.05), 0},
		{math.Float64bits(0.01), 1 << 62},
		{math.Float64bits(1e-15), 1<<63 - 1<<10},
		{math.Float64bits(0.999999), 12345678901234567},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, pBits, uBits uint64) {
		p := math.Float64frombits(pBits)
		u, ok := uniformOf(uBits)
		if !(p > 0 && p < 1) || !ok {
			t.Skip()
		}
		if got, want := firstGap(p, uBits), refGap(1-u, math.Log1p(-p)); got != want {
			t.Fatalf("p=%v U=%v: gap %d, want %d", p, u, got, want)
		}
	})
}
