package bitserial

import (
	"fmt"
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
	return newFlipStream(p, wordSource{rng: rand.New(fixedSource(v & (1<<63 - 1)))}).countdown
}

// forEachKernel runs f with the vector gap kernel off and, where the
// build and the CPU have one, on.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, vec := range []bool{false, true} {
		t.Run(fmt.Sprintf("vec=%v", vec), func(t *testing.T) {
			prev := setVecForTest(vec)
			defer setVecForTest(prev)
			if useVec != vec {
				t.Skip("no vector kernel in this build or on this CPU")
			}
			f(t)
		})
	}
}

// TestFlipGapsMatchExactLog: every gap a stream draws, the first one
// (its countdown) included, is the reference floor(math.Log(1-U)/lp)
// with its maxGap clamp, across rates from 1e-15 to 0.999999, from
// both source forms, with the vector kernel on and off.
func TestFlipGapsMatchExactLog(t *testing.T) {
	const gaps = 500_000
	forEachKernel(t, func(t *testing.T) {
		for _, p := range []float64{1e-15, 1e-9, 1e-4, 0.01, 0.05, 0.3, 0.9, 0.999999} {
			for _, seed := range []int64{1, 2, 3} {
				s := newFlipStream(p, wordSource{rng: rand.New(rand.NewSource(seed))})
				seeded := newFlipStream(p, seededWords(seed))
				ref := rand.New(rand.NewSource(seed))
				lp := math.Log1p(-p)
				got, sgot := s.countdown, seeded.countdown
				for k := 0; k < gaps; k++ {
					if want := refGap(1-ref.Float64(), lp); got != want || sgot != want {
						t.Fatalf("p=%g seed=%d gap %d = %d (seeded %d), want %d", p, seed, k, got, sgot, want)
					}
					got, sgot = s.gap(), seeded.gap()
				}
			}
		}
	})
}

// TestFlipGapEdges pins the draws at the ends of the uniform's range
// and the p >= 1 stream, which draws nothing, with the vector kernel
// on and off. Each stream draws one word into every lane of its
// blocks, so the edge words reach the kernel: U = 0 (x = 1), the
// smallest 1-U, 2^-53, and quotients of 2^52 and more at p = 1e-15 and
// 1e-19.
func TestFlipGapEdges(t *testing.T) {
	forEachKernel(t, testFlipGapEdges)
}

func testFlipGapEdges(t *testing.T) {
	// At 1e-19 the quotient of the smallest 1-U passes 2^63; at 1e-308
	// (a subnormal p, and lp, with a finite 1/lp) it overflows to +Inf.
	for _, p := range []float64{1e-308, 1e-300, 1e-19, 1e-15, 0.01, 0.5, 0.999999, math.Nextafter(1, 0)} {
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
		s := newFlipStream(p, wordSource{rng: rng})
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
// still return the exact floor, with the vector kernel on and off.
func TestFlipGapNearIntegerFallsBack(t *testing.T) {
	forEachKernel(t, testFlipGapNearInteger)
}

func testFlipGapNearInteger(t *testing.T) {
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

// TestFlipGapKernelCertifiesAsScalar pins the vector kernel to
// certifiedGap lane by lane: it certifies exactly the lanes whose
// certifiedGap is certified and below 2^52, with the same gap, and
// marks every other lane. The draws sweep across the edges of the
// bracket around integer quotients, where a change to the kernel's log
// or bracket moves the decision, and include the edge words.
func TestFlipGapKernelCertifiesAsScalar(t *testing.T) {
	if flipGapsVec == nil {
		t.Skip("no vector kernel in this build or on this CPU")
	}
	words := []uint64{0, 1, 1<<63 - 1<<10, 1 << 62}
	rates := []float64{1e-308, 1e-300, 1e-19, 1e-15, 1e-3, 0.01, 0.05, 0.3, 0.999999}
	for _, p := range rates[4:] {
		lp := math.Log1p(-p)
		for n := 1.0; n < 200 && n*lp > -0.69; n++ {
			// At x0 = exp(n*lp) the quotient crosses n. In (0.5, 1) an
			// ulp of x moves it by about 2^-53/|lp|, and the bracket's
			// half-width is 2^8 to 2^17 of those, so offsets of 1 to
			// 2^18 ulps either side cross its edges.
			x0 := math.Float64bits(math.Exp(n * lp))
			for j := 0; j < 18; j++ {
				for _, off := range []uint64{2 << j >> 1, 3 << j >> 1} {
					for _, x := range []uint64{x0 - off, x0 + off} {
						words = append(words, uint64((1-math.Float64frombits(x))*(1<<63)))
					}
				}
			}
		}
	}
	for r := rand.New(rand.NewSource(4)); len(words)%blockLen != 0 || len(words) < 64*blockLen; {
		words = append(words, uint64(r.Int63())>>r.Intn(64))
	}
	for _, p := range rates {
		lp := math.Log1p(-p)
		ilp := 1 / lp
		certified := 0
		for k := 0; k < len(words); k += blockLen {
			var b [blockLen]uint64
			copy(b[:], words[k:])
			all := flipGapsVec(&b, ilp)
			allWant := true
			for i, g := range b {
				v := words[k+i]
				want := v | uncertified
				if sg, ok := certifiedGap(fastLog(1-float64(int64(v))/(1<<63)), ilp); ok && sg < 1<<52 {
					want = sg
					certified++
				} else {
					allWant = false
				}
				if g != want {
					t.Fatalf("p=%g word %#x: kernel lane %#x, want %#x", p, v, g, want)
				}
			}
			if all != allWant {
				t.Fatalf("p=%g block %d: kernel reports all certified %v, want %v", p, k/blockLen, all, allWant)
			}
		}
		t.Logf("p=%g: %d of %d lanes certified", p, certified, len(words))
	}
}

// TestFlipGapKernelLogIsFastLog: the kernel's log is fastLog's bit for
// bit. For draws x = 1-U across the binades, it picks an ilp that puts
// the low end of certifiedGap's bracket at an integer N, such that a
// log one ulp nearer 0 would put it below N, and one that puts the
// high end just below N+1, such that a log one ulp further from 0
// would reach N+1. The kernel must certify N both times.
func TestFlipGapKernelLogIsFastLog(t *testing.T) {
	if flipGapsVec == nil {
		t.Skip("no vector kernel in this build or on this CPU")
	}
	bracket := func(l, ilp float64) (lo, hi float64) {
		q := l * ilp
		return q*(1-gapSlackRel) + ilp*gapSlackAbs, q*(1+gapSlackRel) - ilp*gapSlackAbs
	}
	// boundary returns the smallest |ilp| in bits whose end (0 low, 1
	// high) of the bracket of l reaches n; the ends grow with |ilp|.
	boundary := func(l, n float64, end int) uint64 {
		reaches := func(b uint64) bool {
			lohi := [2]float64{}
			lohi[0], lohi[1] = bracket(l, -math.Float64frombits(b))
			return lohi[end] >= n
		}
		a, b := math.Float64bits(n/-l*(1-0x1p-30)), math.Float64bits(n/-l*(1+0x1p-30))
		for b-a > 1 {
			if m := a + (b-a)/2; reaches(m) {
				b = m
			} else {
				a = m
			}
		}
		return b
	}
	r := rand.New(rand.NewSource(6))
	cases := 0
	for trial := 0; trial < 4000; trial++ {
		v := uint64(r.Int63()) >> r.Intn(63)
		if trial%2 == 1 {
			v = 1<<63 - 1 - v // small x
		}
		u, ok := uniformOf(v)
		if !ok {
			continue
		}
		l := fastLog(1 - u)
		n := float64(1 + r.Intn(1000))
		for end := range 2 {
			var ilp, near float64
			if end == 0 {
				ilp, near = -math.Float64frombits(boundary(l, n, 0)), math.Nextafter(l, 0)
			} else {
				ilp, near = -math.Float64frombits(boundary(l, n+1, 1)-1), math.Nextafter(l, math.Inf(-1))
			}
			g, ok := certifiedGap(l, ilp)
			lo, hi := bracket(near, ilp)
			if !ok || g != uint64(n) || end == 0 && lo >= n || end == 1 && hi < n+1 {
				continue // the neighbouring log would not change the decision
			}
			cases++
			var b [blockLen]uint64
			for i := range b {
				b[i] = v
			}
			flipGapsVec(&b, ilp)
			if b[0] != g || b[blockLen-1] != g {
				t.Fatalf("U=%v (log %v) ilp=%v: kernel lane %#x, want gap %d", u, l, ilp, b[0], g)
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d decisive cases built", cases)
	}
	t.Logf("%d decisive cases", cases)
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
// gap is the exact reference gap. So is the gap flipGaps gives the
// draw, with the vector kernel on and off, at every lane position of a
// block whose other lanes hold draws of every magnitude.
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
		lp := math.Log1p(-p)
		want := refGap(1-u, lp)
		if got := firstGap(p, uBits); got != want {
			t.Fatalf("p=%v U=%v: gap %d, want %d", p, u, got, want)
		}
		var others, wants [blockLen]uint64
		r := rand.New(rand.NewSource(int64(uBits)))
		for i := range others {
			others[i] = uint64(r.Int63()) >> (i % 64)
			ou, _ := uniformOf(others[i])
			wants[i] = refGap(1-ou, lp)
		}
		for _, vec := range []bool{false, true} {
			prev := setVecForTest(vec)
			for lane := range others {
				b := others
				b[lane] = uBits &^ (1 << 63)
				flipGaps(&b, lp, 1/lp)
				for i, g := range b {
					if w := wants[i]; i == lane && g != want || i != lane && g != w {
						t.Errorf("p=%v U=%v vec=%v at lane %d: lane %d gap %d", p, u, useVec, lane, i, g)
					}
				}
			}
			setVecForTest(prev)
		}
	})
}
