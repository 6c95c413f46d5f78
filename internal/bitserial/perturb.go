package bitserial

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// FlipRates is the per-bit error injection a PerturbedEngine applies:
// the probability that any given bit of a multiply's product word flips
// (Mul), and the probability that any given bit of the running
// accumulator flips after a merge add (Acc). The rates encode *where*
// each PIXEL design is exposed to device variation: the electrical EE
// design is immune (both zero), the hybrid OE design multiplies
// optically but accumulates electrically (Mul only), and the
// all-optical OO design is exposed on both (Mul and Acc). The mapping
// from physical perturbations to these rates lives in
// internal/montecarlo.
type FlipRates struct {
	// Mul is the per-bit flip probability applied to each multiply's
	// product word (the low 2*Bits() bits).
	Mul float64
	// Acc is the per-bit flip probability applied to the full
	// accumulator word after each merge add.
	Acc float64
}

// Validate reports an error for rates outside [0, 1].
func (r FlipRates) Validate() error {
	if r.Mul < 0 || r.Mul > 1 || math.IsNaN(r.Mul) {
		return fmt.Errorf("bitserial: multiply flip rate %v out of [0,1]", r.Mul)
	}
	if r.Acc < 0 || r.Acc > 1 || math.IsNaN(r.Acc) {
		return fmt.Errorf("bitserial: accumulate flip rate %v out of [0,1]", r.Acc)
	}
	return nil
}

// Zero reports whether no injection happens at these rates.
func (r FlipRates) Zero() bool { return r.Mul <= 0 && r.Acc <= 0 }

// flipStream injects bit flips into a stream of words at a fixed
// per-bit probability, using geometric gap sampling: instead of one
// uniform draw per bit (ruinous for whole-CNN trials), it draws the
// gap to the next flip, G ~ Geometric(p), and skips that many clean
// bits in O(1). One uniform is consumed per *flip*, so the draw at
// position k is the same for every rate — which makes the number of
// flips within a fixed-length stream monotone non-decreasing in p for
// a fixed seed. The Monte-Carlo engine leans on that coupling: a
// higher-σ trial sharing a trial seed injects a superset count of
// errors, so yield curves degrade monotonically rather than jitter
// with resampling noise.
//
// Gaps are drawn ahead a block at a time: the stream's wordSource
// fills gaps with the next blockLen words, and flipGaps turns them
// into gaps in place. Each gap is floor(math.Log(1-U)/log1p(-p)) bit
// for bit, computed from a table logarithm whose error bound certifies
// the floor; only a quotient too close to an integer to certify pays
// for math.Log (see certifiedGap). The stream owns its source, so
// drawing ahead changes no gap.
type flipStream struct {
	p float64
	// lp is math.Log1p(-p), the gap sampler's denominator, and ilp its
	// reciprocal.
	lp, ilp float64
	src     wordSource
	// countdown is the number of clean bits remaining before the next
	// scheduled flip.
	countdown uint64
	flips     int64
	bits      int64
	// words counts exposed words that took at least one flip; oddWords
	// counts those that took an odd number — the word-level errors a
	// per-word parity lane can detect (even flip counts cancel in the
	// parity bit and escape).
	words    int64
	oddWords int64
	// gaps[next:] are drawn gaps not yet consumed.
	gaps [blockLen]uint64
	next int
}

// maxGap bounds a sampled gap so float rounding at tiny p cannot
// overflow the countdown arithmetic; 1<<60 bits is ~10^9 LeNet
// inferences, far beyond any run length.
const maxGap = uint64(1) << 60

func newFlipStream(p float64, src wordSource) *flipStream {
	lp := math.Log1p(-p)
	s := &flipStream{p: p, lp: lp, ilp: 1 / lp, src: src}
	s.next = len(s.gaps)
	if p > 0 {
		s.countdown = s.gap()
	}
	return s
}

// gap returns the number of clean bits before the next flip.
func (s *flipStream) gap() uint64 {
	if s.next == len(s.gaps) {
		s.refill()
	}
	g := s.gaps[s.next]
	s.next++
	return g
}

// refill draws the next len(gaps) gaps, one uniform each. At p >= 1
// every gap is zero and no randomness is consumed.
func (s *flipStream) refill() {
	s.next = 0
	if s.p >= 1 {
		return // the gaps were never written and stay zero
	}
	s.src.fill(&s.gaps)
	flipGaps(&s.gaps, s.lp, s.ilp)
}

// uncertified marks a lane the vector kernel could not certify: the
// lane keeps its word with bit 63, which no word sets, turned on.
const uncertified = 1 << 63

// flipGaps turns a block of words into their gaps in place: word v
// draws U = v/2^63 and the gap floor(math.Log(1-U)/lp), from the
// certified table log where it can be. Where the build and the CPU
// have a vector kernel, it does this four lanes at a time with the
// same table log and bracket, and marks the lanes it cannot certify
// for the scalar loop below, which is the definition.
func flipGaps(b *[blockLen]uint64, lp, ilp float64) {
	vec := useVec
	if vec && flipGapsVec(b, ilp) {
		return
	}
	for i, v := range b {
		if vec && v < uncertified {
			continue
		}
		// 1-U is in (0, 1], keeping the log finite.
		x := 1 - float64(int64(v&^uncertified))/(1<<63)
		g, ok := certifiedGap(fastLog(x), ilp)
		if !ok {
			g = exactGap(x, lp)
		}
		b[i] = g
	}
}

// Slack of a certified gap: a quotient q is trusted to within
// d = q*gapSlackRel + gapSlackAbs/|lp| of the exact one.
const (
	gapSlackRel = 0x1p-36
	gapSlackAbs = 0x1p-44
)

// certifiedGap returns exactGap(x, lp) given l = fastLog(x) for x in
// (0, 1] and ilp = 1/lp < 0, or false when it cannot certify that gap.
//
// It takes q = l*ilp and brackets it by q ∓ d, d = q*2^-36 +
// 2^-44*|ilp|. The exact quotient R = math.Log(x)/lp differs from q by
// at most the sum of
//
//   - |fastLog(x) - math.Log(x)|/|lp|, under (2^-36*|log x| +
//     2^-44)/64/|lp| (TestFastLogErrorBound), so under d/64 plus a
//     rounding-sized term;
//   - the roundings of 1/lp and of l*ilp here and of the divide in R,
//     each at most 2^-53 of the quotient, together under
//     2^-51*q*(1+2^-50).
//
// That sum is under d/32, so R lies in (q-d/2, q+d/2), and the two
// roundings in each bracket end (under 2^-52*q + 2^-53*d < d/2) cannot
// carry it past R. When both ends share a non-negative integer part
// below 2^58, that part is floor(R), and maxGap does not clamp it. A
// quotient within d of an integer, x = 1 (q = 0), and a p so small
// that 1/lp overflows (q = +Inf or NaN) are left to exactGap.
func certifiedGap(l, ilp float64) (uint64, bool) {
	q := l * ilp
	lo := q*(1-gapSlackRel) + ilp*gapSlackAbs
	hi := q*(1+gapSlackRel) - ilp*gapSlackAbs
	g := int64(lo) // any value when lo is out of range; then ok is false
	return uint64(g), lo >= 0 && hi < 0x1p58 && g == int64(hi)
}

// exactGap is the reference gap floor(math.Log(x)/lp), clamped to
// maxGap.
func exactGap(x, lp float64) uint64 {
	g := math.Floor(math.Log(x) / lp)
	if !(g >= 0) || g > float64(maxGap) {
		g = float64(maxGap)
	}
	return uint64(int64(g)) // g <= maxGap < 1<<63
}

// logTab holds, per cell of the reduced argument z in [0.6875, 1.375),
// an inverse centre 1/c and -math.Log(1/c).
var logTab [1 << logTabBits]struct{ inv, log float64 }

const (
	logTabBits = 7
	// logOff is the bit pattern of 0.6875, the bottom of the reduced
	// range: subtracting it from x's bits yields the binade shift k in
	// the exponent field and the cell index in the top mantissa bits.
	logOff = 0x3fe6000000000000
)

func init() {
	for i := range logTab {
		// Cell i holds the z whose bits minus logOff have mantissa
		// prefix i; its bounds are those bit patterns.
		lo := math.Float64frombits(logOff + uint64(i)<<(52-logTabBits))
		hi := math.Float64frombits(logOff + uint64(i+1)<<(52-logTabBits))
		inv := 2 / (lo + hi)
		logTab[i].inv, logTab[i].log = inv, -math.Log(inv)
	}
}

// fastLog is log(x) for a positive normal x without a divide: x =
// 2^k*z with z in [0.6875, 1.375), and log x = k*ln2 + log c +
// log1p(z/c - 1) for the table cell's centre c, with |z/c - 1| <=
// 2^-8 and log1p taken to degree 7 (truncation under 2^-67). What is
// left is float rounding: a few ulps of log x or, near x = 1, of the
// cell's log c. TestFastLogErrorBound checks it cell by cell and
// binade by binade against the slack certifiedGap allows.
func fastLog(x float64) float64 {
	ix := math.Float64bits(x)
	t := ix - logOff
	k := int64(t) >> 52
	c := &logTab[t>>(52-logTabBits)%(1<<logTabBits)]
	z := math.Float64frombits(ix - t&(0xfff<<52))
	r := z*c.inv - 1
	r2 := r * r
	p := -0.5 + r*(1.0/3) + r2*(-0.25+r*0.2) + r2*r2*(-1.0/6+r*(1.0/7))
	return float64(k)*math.Ln2 + c.log + (r + r2*p)
}

// apply advances the stream over the low `width` bits of v, flipping
// the scheduled ones. A zero-rate stream is a no-op and consumes no
// randomness, so a PerturbedEngine with zero rates is bit-identical to
// the unperturbed engine without touching its RNGs.
func (s *flipStream) apply(v uint64, width int) uint64 {
	if s.p <= 0 {
		return v
	}
	s.bits += int64(width)
	w := uint64(width)
	var flipped int64
	for s.countdown < w {
		v ^= uint64(1) << s.countdown
		flipped++
		gap := s.gap()
		if gap >= maxGap-s.countdown {
			s.countdown = maxGap
			break
		}
		s.countdown += 1 + gap
	}
	s.countdown -= w
	if flipped > 0 {
		s.flips += flipped
		s.words++
		if flipped&1 == 1 {
			s.oddWords++
		}
	}
	return v
}

// masks advances the stream over len(m) words of width w (1..64) and
// writes word i's XOR mask into m[i], leaving the stream and its
// counters exactly as len(m) calls to apply(·, w) would. Positions are
// tracked in the linear bit space of the whole run; the word of a flip
// is found by a multiply with a precomputed reciprocal of w.
func (s *flipStream) masks(m []uint64, w uint64) {
	clear(m)
	if s.p <= 0 {
		return
	}
	n := uint64(len(m))
	span := n * w
	s.bits += int64(span)
	// ceil(2^63/w): hi64((pos<<1)*recip) == pos/w for pos < 2^63/w.
	recip := (uint64(1)<<63-1)/w + 1
	pos := s.countdown
	var flips, words, odd int64
	for pos < span {
		i, _ := bits.Mul64(pos<<1, recip)
		base := i * w
		prev := m[i]
		m[i] = prev | uint64(1)<<(pos-base)
		flips++
		// A word's first flip counts it; each flip toggles its parity.
		words += int64(((prev | -prev) >> 63) ^ 1)
		odd += 1 - 2*int64(bits.OnesCount64(prev)&1)
		gap := s.gap()
		if gap >= maxGap-(pos-base) {
			pos = base + maxGap
			break
		}
		pos += 1 + gap
	}
	s.countdown = pos - span
	s.flips += flips
	s.words += words
	s.oddWords += odd
}

// PerturbedEngine is a FastEngine that injects seeded bit errors into
// the bit-serial datapath: multiply product bits flip at rates.Mul and
// the running accumulator flips at rates.Acc after each merge, while
// Stats stay the closed-form work counts of the unperturbed design
// (variation corrupts values, not the cycle count). With both rates
// zero it is bit-identical to FastEngine — pinned by
// TestPerturbedZeroRatesDegeneracy and, end to end, by the Monte-Carlo
// σ=0 golden test.
//
// A PerturbedEngine owns its rand streams and draws them ahead in
// chunks; its flip schedule advances with every call, so it is NOT
// safe for concurrent use. The Monte-Carlo engine runs one engine per
// trial, serially within the trial, and parallelizes across trials.
type PerturbedEngine struct {
	base      *FastEngine
	mul       *flipStream
	acc       *flipStream
	prodWidth int
	// sparseMul is set when the multiply rate is sparse enough for
	// DotFromClean to correct clean values flip by flip.
	sparseMul bool
	// masks is DotProduct's scratch: the multiply masks, then the
	// accumulate masks, of the current call.
	masks []uint64
}

var _ Stripes = (*PerturbedEngine)(nil)

// NewPerturbedEngine returns a fault-injecting engine with the same
// operand and accumulator geometry as NewFastEngine(bits, terms). A
// rand stream is required for each non-zero rate (mulRng for Mul,
// accRng for Acc); unused streams may be nil. The engine owns the
// streams: one *rand.Rand may not serve both rates, since each stream
// draws ahead of the flips it has applied.
func NewPerturbedEngine(bits, terms int, rates FlipRates, mulRng, accRng *rand.Rand) (*PerturbedEngine, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	if rates.Mul > 0 && mulRng == nil {
		return nil, fmt.Errorf("bitserial: multiply flip rate %v needs a rand stream", rates.Mul)
	}
	if rates.Acc > 0 && accRng == nil {
		return nil, fmt.Errorf("bitserial: accumulate flip rate %v needs a rand stream", rates.Acc)
	}
	if rates.Mul > 0 && rates.Acc > 0 && mulRng == accRng {
		return nil, fmt.Errorf("bitserial: multiply and accumulate flips need separate rand streams")
	}
	return newPerturbedEngine(bits, terms, rates, wordSource{rng: mulRng}, wordSource{rng: accRng})
}

// NewSeededPerturbedEngine is NewPerturbedEngine with its streams given
// as seeds: it injects exactly the flips NewPerturbedEngine does on
// rand.New(rand.NewSource(mulSeed)) and rand.New(rand.NewSource(accSeed)),
// but draws each stream's words a block at a time. A rate that draws
// nothing (<= 0 or >= 1) builds no source.
func NewSeededPerturbedEngine(bits, terms int, rates FlipRates, mulSeed, accSeed int64) (*PerturbedEngine, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	seeded := func(p float64, seed int64) wordSource {
		if p <= 0 || p >= 1 {
			return wordSource{}
		}
		return seededWords(seed)
	}
	return newPerturbedEngine(bits, terms, rates, seeded(rates.Mul, mulSeed), seeded(rates.Acc, accSeed))
}

func newPerturbedEngine(bits, terms int, rates FlipRates, mul, acc wordSource) (*PerturbedEngine, error) {
	base, err := NewFastEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	return &PerturbedEngine{
		base:      base,
		mul:       newFlipStream(rates.Mul, mul),
		acc:       newFlipStream(rates.Acc, acc),
		prodWidth: 2 * bits,
		sparseMul: rates.Mul*float64(2*bits) <= sparseFlipsPerWord,
	}, nil
}

// InjectedFlips returns the total number of bits flipped so far.
func (e *PerturbedEngine) InjectedFlips() int64 { return e.mul.flips + e.acc.flips }

// OddFlipWords returns how many exposed words took an odd number of
// flips so far — the word-level errors a per-word parity wavelength
// detects. Words with an even flip count cancel in the parity bit and
// escape detection, which is exactly the blind spot a real parity
// frame has; internal/protect's detect-and-retry scheme keys off this
// counter so its coverage is faithful rather than oracle-perfect.
func (e *PerturbedEngine) OddFlipWords() int64 { return e.mul.oddWords + e.acc.oddWords }

// BitsExposed returns how many bits have passed through active
// (non-zero-rate) injection streams — the denominator of the injected
// bit-error rate.
func (e *PerturbedEngine) BitsExposed() int64 { return e.mul.bits + e.acc.bits }

// InjectedBER returns the realized injected bit-error rate, 0 when no
// stream is active.
func (e *PerturbedEngine) InjectedBER() float64 {
	exposed := e.BitsExposed()
	if exposed == 0 {
		return 0
	}
	return float64(e.InjectedFlips()) / float64(exposed)
}

// DotProduct mirrors FastEngine.DotProduct with injection: each
// element's product is corrupted at the Mul rate before the merge, and
// the running accumulator is corrupted at the Acc rate after it.
func (e *PerturbedEngine) DotProduct(neurons, synapses []uint64) (uint64, Stats, error) {
	if err := e.base.checkVectors(neurons, synapses); err != nil {
		return 0, Stats{}, err
	}
	return e.merge(neurons, synapses), e.base.dotStats(len(neurons)), nil
}

// merge is DotProduct on checked operands. Both streams first lay the
// call's flips out as per-element XOR masks, so the merge loop itself
// has no branch.
func (e *PerturbedEngine) merge(neurons, synapses []uint64) uint64 {
	n := len(neurons)
	if cap(e.masks) < 2*n {
		e.masks = make([]uint64, 2*n)
	}
	mm, am := e.masks[:n], e.masks[n:2*n]
	e.mul.masks(mm, uint64(e.prodWidth))
	e.acc.masks(am, uint64(e.base.accWidth))
	mask := e.base.accMask
	synapses = synapses[:n]
	var acc uint64
	for i, a := range neurons {
		acc = (acc + (a*synapses[i]&mask ^ mm[i])) & mask
		acc ^= am[i]
	}
	return acc
}

// Walker is a Stripes engine whose calls can start from their clean
// value. DotFromClean returns what DotProduct(neurons(), synapses)
// would, given clean, the call's value on the unperturbed engine, and
// leaves the engine as that call would. It calls neurons only when
// the call needs its operands, and trusts them: the clean pass that
// made clean range checked them. PerturbedEngine and the protect
// wrappers implement it.
type Walker interface {
	Stripes
	DotFromClean(neurons func() []uint64, synapses []uint64, clean uint64) (uint64, error)
}

var _ Walker = (*PerturbedEngine)(nil)

// sparseFlipsPerWord is the largest expected number of multiply flips
// per product word at which DotFromClean corrects a clean value flip by
// flip; at denser rates most words take a flip, and the branch-free
// merge is cheaper. BenchmarkDotFromClean puts the crossover of the two
// paths between 0.5 and 0.7 flips per word (docs/VARIATION.md).
const sparseFlipsPerWord = 0.5

// DotFromClean implements Walker. A call with no flip scheduled in the
// span of either stream keeps its clean value, and both streams skip
// the span in O(1). A call whose only flips are product bits, at a
// sparse multiply rate, corrects the clean value flip by flip: the
// accumulator is a sum mod 2^accWidth, so flipping bit b of product p
// adds (p ^ 1<<b) - p. Any other call runs DotProduct's merge.
func (e *PerturbedEngine) DotFromClean(neurons func() []uint64, synapses []uint64, clean uint64) (uint64, error) {
	n := uint64(len(synapses))
	mulSpan, accSpan := n*uint64(e.prodWidth), n*uint64(e.base.accWidth)
	if !e.acc.flipFree(accSpan) || (!e.mul.flipFree(mulSpan) && !e.sparseMul) {
		return e.merge(neurons(), synapses), nil
	}
	e.acc.skip(accSpan)
	if e.mul.flipFree(mulSpan) {
		e.mul.skip(mulSpan)
		return clean, nil
	}
	return e.mul.correct(clean, neurons(), synapses, uint64(e.prodWidth), e.base.accMask), nil
}

// flipFree reports whether the next span bits of the stream hold no
// scheduled flip.
func (s *flipStream) flipFree(span uint64) bool { return s.p <= 0 || s.countdown >= span }

// skip advances the stream over span flip-free bits, exactly as masks
// over them would.
func (s *flipStream) skip(span uint64) {
	if s.p > 0 {
		s.countdown -= span
		s.bits += int64(span)
	}
}

// correct advances the stream over the product words of neurons and
// synapses, each w bits wide, as masks would, and returns v with each
// flipped product bit's change added, mod accMask+1. Flips in one word
// hit distinct bits, so their changes add.
func (s *flipStream) correct(v uint64, neurons, synapses []uint64, w, accMask uint64) uint64 {
	span := uint64(len(synapses)) * w
	s.bits += int64(span)
	recip := (uint64(1)<<63-1)/w + 1 // as in masks
	pos := s.countdown
	var flips, words, odd int64
	last, inWord := ^uint64(0), int64(0) // the word of the previous flip, and its flips
	for pos < span {
		i, _ := bits.Mul64(pos<<1, recip)
		base := i * w
		if i != last {
			words++
			odd += inWord & 1
			last, inWord = i, 0
		}
		inWord++
		flips++
		p := neurons[i] * synapses[i]
		v += p ^ uint64(1)<<(pos-base) - p
		gap := s.gap()
		if gap >= maxGap-(pos-base) {
			pos = base + maxGap
			break
		}
		pos += 1 + gap
	}
	s.countdown = pos - span
	s.flips += flips
	s.words += words
	s.oddWords += odd + inWord&1
	return v & accMask
}
