package bitserial

import (
	"fmt"
	"slices"
	"sync"
)

// groupLanes is how many windows one transposed group carries in
// lockstep — the software dual of the paper's wavelength parallelism
// (one dot product per λ lane per pulse). 64 lanes keep a group's
// column store inside L2 for LeNet-sized windows.
const groupLanes = 64

// BatchedStripes executes many Stripes dot products per call,
// word-parallel across the batch. Windows are transposed into a
// lane-major column store — for each element position, one contiguous
// run of the batch's values at that position — so each synapse weight
// of the shared filter updates every lane of the group in one
// multiply-accumulate sweep over a hot cache line, with operand
// validation hoisted into the transpose instead of paid per
// (window, filter) pair. Lanes accumulate in 32-bit slots and are
// reduced by the accumulator mask once per dot product; because
// reduction mod 2^accWidth is a ring homomorphism from arithmetic mod
// 2^32 (accWidth <= 32), that single reduction lands on exactly the
// value the sequential engine's per-element wrap produces — the same collapse-the-bit-serial-loop move NewFastEngine
// makes against the gate-level engine, one level up. Results (values
// and Stats) are bit-identical to running each window through
// FastEngine sequentially; TestBatchedStripesEquivalence pins the two
// together.
//
// The column store is the dual store: operands fit 15 bits and the
// accumulator 32, so each 32-bit lane slot carries two consecutive
// window elements, v[2p] | v[2p+1]<<16, and each filter word the
// matching two weights, so one 16-bit multiply-add (VPMADDWD on AVX2)
// performs two MACs per lane — the software dual of carrying several
// bits per wavelength. NewBatchedStripes refuses any geometry the
// store cannot hold.
//
// Filters are range checked and converted once into a Filters handle
// (Prepare), which a caller that reuses them — a CNN layer — keeps.
// LaneBatch sweeps prepared filters over windows a LaneSource writes
// straight into the column store, so a conv's windows go from its
// input image to the sweep without being lowered into vectors first;
// PrepareLanes holds a set of vectors stationary in the store, as the
// paper's MRR banks hold synapses. FilterBatch and DotProductsMulti
// prepare their filters on every call.
//
// A BatchedStripes is safe for concurrent use: per-call scratch comes
// from an internal pool.
type BatchedStripes struct {
	fe      *FastEngine
	stretch int // element pairs the scalar sweep sums between carries
	scratch sync.Pool
}

// batchScratch is the pooled per-call working set: the lane-major
// column store, four filter accumulator rows (filters are swept four
// at a time so each column load feeds four independent accumulate
// chains), and FilterBatch's windows and per-call dual filters.
type batchScratch struct {
	win  windowSource
	cols []uint64 // [row*words + word]
	acc  []uint64 // [k*groupLanes + word], filter k of the quad
	dual []uint32
}

// NewBatchedStripes returns a batched engine with the same operand and
// accumulator geometry as NewFastEngine(bits, terms). The geometry must
// fit the dual store, bits <= 15 and an accumulator of at most 32 bits.
func NewBatchedStripes(bits, terms int) (*BatchedStripes, error) {
	fe, err := NewFastEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	if bits > 15 || fe.accWidth > 32 {
		return nil, fmt.Errorf("bitserial: batched engine needs bits <= 15 and accumulator width <= 32, got bits %d, accumulator width %d", bits, fe.accWidth)
	}
	// A dual slot adds at most 2·(2^bits−1)² < 2^31 per pair, so this
	// many pairs sum without a low half carrying into its high half.
	maxSlot := 2 * fe.mask * fe.mask
	return &BatchedStripes{fe: fe, stretch: int(max(1, min((1<<32-1)/maxSlot, 1<<30)))}, nil
}

// Bits returns the operand precision.
func (b *BatchedStripes) Bits() int { return b.fe.bits }

// DotProduct computes one dot product through the sequential engine —
// the qnn.Dotter form for unbatched callers.
func (b *BatchedStripes) DotProduct(neurons, synapses []uint64) (uint64, error) {
	v, _, err := b.fe.DotProduct(neurons, synapses)
	return v, err
}

// DotProducts writes windows[w] · weights into out[w] for every w,
// bit-identical to len(windows) sequential FastEngine.DotProduct calls.
func (b *BatchedStripes) DotProducts(windows [][]uint64, weights []uint64, out []uint64) error {
	if len(out) != len(windows) {
		return fmt.Errorf("bitserial: out length %d != %d windows", len(out), len(windows))
	}
	_, err := b.FilterBatch(windows, [][]uint64{weights}, [][]uint64{out})
	return err
}

// DotProductsMulti evaluates every filter against every window,
// writing outs[f][w] — the qnn.MultiDotter form of FilterBatch. The
// window transpose is shared across all filters.
func (b *BatchedStripes) DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error {
	_, err := b.FilterBatch(windows, filters, outs)
	return err
}

// FilterBatch computes outs[f][w] = windows[w] · filters[f] for every
// (filter, window) pair, transposing each 64-window group into the
// lane-major column store once and sweeping all filters over it: it is
// LaneBatch with the windows as the lane source and the filters
// prepared for this call only. Values and Stats are bit-identical to
// the sequential per-pair FastEngine calls.
func (b *BatchedStripes) FilterBatch(windows [][]uint64, filters [][]uint64, outs [][]uint64) (Stats, error) {
	if err := checkOuts(outs, len(filters), len(windows)); err != nil {
		return Stats{}, err
	}
	sc := b.getScratch()
	defer b.putScratch(sc)
	sc.win = windowSource{windows: windows, fe: b.fe}
	n, err := sc.win.Cols()
	if err != nil {
		return Stats{}, err
	}
	if _, err := b.checkFilters(filters, n); err != nil {
		return Stats{}, err
	}
	sc.dual = packDual(sc.dual, filters, n)
	return b.sweep(&sc.win, n, len(filters), sc.dual, outs, sc)
}

// Filters is a filter bank prepared for LaneBatch: its lengths checked
// once, every synapse folded into one OR so an engine range checks the
// whole bank in O(1), and its dual-store form (two weights per 32-bit
// word, padded with zero filters to a multiple of four) built once.
// Only Prepare changes a Filters; LaneBatch sweeps may share it
// concurrently. It holds the filter slices it was prepared from, which
// must not change while it is in use.
type Filters struct {
	rows [][]uint64
	n    int      // the common filter length; -1 when there are no filters
	or   uint64   // OR of every synapse of the bank it was prepared from
	dual []uint32 // pair p of filter f at dual[f*pairs+p]
}

// Prepare range checks filters against b's operand width, with the
// error text FilterBatch reports, and converts them once into pf for
// LaneBatch, reusing pf's storage: a caller that prepares different
// filters on every call keeps one pf in pooled scratch. pf must not be
// in use by another call. The handle works on any engine: another
// engine's LaneBatch range checks it against its own width.
func (b *BatchedStripes) Prepare(pf *Filters, filters [][]uint64) error {
	n := -1
	if len(filters) > 0 {
		n = len(filters[0])
	}
	or, err := b.checkFilters(filters, n)
	if err != nil {
		return err
	}
	pf.rows, pf.n, pf.or, pf.dual = filters, n, or, packDual(pf.dual, filters, n)
	return nil
}

// Len returns the number of filters.
func (pf *Filters) Len() int { return len(pf.rows) }

// Slice returns the handle of filters [lo, hi). lo must be a multiple
// of four, so the view shares its parent's dual quads.
func (pf *Filters) Slice(lo, hi int) *Filters {
	if lo%4 != 0 {
		panic(fmt.Sprintf("bitserial: Filters.Slice(%d, %d): lo is not a multiple of 4", lo, hi))
	}
	return &Filters{rows: pf.rows[lo:hi:hi], n: pf.n, or: pf.or, dual: pf.dual[lo*depth(pf.n):]}
}

// packDual writes the dual form of n-element filters into dst (grown
// as needed): pair p of filter f is f[2p] | f[2p+1]<<16, with a zero
// high weight for the last pair of an odd n, and zero filters pad the
// bank to a multiple of four.
func packDual(dst []uint32, filters [][]uint64, n int) []uint32 {
	pairs := (n + 1) / 2
	size := ((len(filters) + 3) &^ 3) * pairs
	dst = slices.Grow(dst[:0], size)[:size]
	for f, fl := range filters {
		row := dst[f*pairs : (f+1)*pairs : (f+1)*pairs]
		for p := 0; p < n/2; p++ {
			row[p] = uint32(fl[2*p]) | uint32(fl[2*p+1])<<16
		}
		if n%2 == 1 {
			row[pairs-1] = uint32(fl[n-1])
		}
	}
	clear(dst[len(filters)*pairs:])
	return dst
}

// LaneSource supplies the windows of a LaneBatch by writing them
// straight into a group's lane-major column store, so a caller that
// can generate its windows (a conv reading them out of its input
// image) never materializes them as vectors. LaneBatch does not range
// check what Fill writes: a source either guarantees every element
// fits the engine's operand width or rejects an out-of-range one with
// an error, as FilterBatch's windows do.
type LaneSource interface {
	// Rows returns the number of windows.
	Rows() int
	// Cols returns the window length (-1 when there are no windows),
	// or an error when the windows disagree on it.
	Cols() (int, error)
	// Fill writes windows [start, start+lanes) into cols in the dual
	// store: row p holds element pair (2p, 2p+1) and two lanes share a
	// word, words = (lanes+1)/2 per row, lane l the low (even l) or
	// high (odd l) 32 bits of word l/2 at cols[p*words+l/2], and its
	// slot is v[2p] | v[2p+1]<<16, with v[n] = 0 for an odd window
	// length n; a word with no odd lane has a zero high half. Fill must
	// overwrite every word of cols.
	Fill(cols []uint64, start, lanes int) error
}

// LaneBatch computes outs[f][w] = window w · filter f for every
// window src supplies and every prepared filter, filling each
// 64-window group's column store from src and sweeping all filters
// over it. Values and Stats are bit-identical to FilterBatch over the
// same windows and filters; a source that reports an error ends the
// call with it. A Lanes source in the engine's operand range is swept
// where it stands, without a fill.
func (b *BatchedStripes) LaneBatch(src LaneSource, filters *Filters, outs [][]uint64) (Stats, error) {
	rows := src.Rows()
	if err := checkOuts(outs, filters.Len(), rows); err != nil {
		return Stats{}, err
	}
	n, err := src.Cols()
	if err != nil {
		return Stats{}, err
	}
	if n >= 0 && filters.Len() > 0 && filters.n != n {
		return Stats{}, fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", n, filters.n)
	}
	if filters.or > b.fe.mask {
		if _, err := b.checkFilters(filters.rows, -1); err != nil {
			return Stats{}, err
		}
	}
	sc := b.getScratch()
	defer b.putScratch(sc)
	return b.sweep(src, n, filters.Len(), filters.dual, outs, sc)
}

// Lanes is a set of vectors held stationary in an engine's column
// store: transposed and range checked once (PrepareLanes), then swept
// by LaneBatch in place, call after call, as the paper's MRR banks
// hold synapses while activations stream past. An engine with a
// narrower operand range transposes the vectors again instead. A Lanes
// is immutable and safe for concurrent use; it holds the vectors it was
// prepared from, which must not change afterwards.
type Lanes struct {
	windowSource
	or     uint64     // OR of every element
	groups [][]uint64 // each 64-lane group's column store
}

// PrepareLanes transposes vectors into b's column store, range checked
// as FilterBatch checks its windows.
func (b *BatchedStripes) PrepareLanes(vectors [][]uint64) (*Lanes, error) {
	l := &Lanes{windowSource: windowSource{windows: vectors, fe: b.fe}}
	n, err := l.Cols()
	if err != nil {
		return nil, err
	}
	for start := 0; start < len(vectors); start += groupLanes {
		lanes := min(groupLanes, len(vectors)-start)
		cols := make([]uint64, depth(n)*laneWords(lanes))
		if err := l.Fill(cols, start, lanes); err != nil {
			return nil, err
		}
		l.groups = append(l.groups, cols)
	}
	for _, v := range vectors {
		for _, x := range v {
			l.or |= x
		}
	}
	return l, nil
}

// checkOuts rejects output rows that do not match filters × rows.
func checkOuts(outs [][]uint64, filters, rows int) error {
	if len(outs) != filters {
		return fmt.Errorf("bitserial: %d output rows != %d filters", len(outs), filters)
	}
	for f, o := range outs {
		if len(o) != rows {
			return fmt.Errorf("bitserial: output row %d length %d != %d windows", f, len(o), rows)
		}
	}
	return nil
}

// depth is the column store's rows for n-element windows (n = -1: no
// windows): one per element pair.
func depth(n int) int { return (n + 1) / 2 }

// laneWords is the column store's words per row for a group of lanes:
// one per lane pair.
func laneWords(lanes int) int { return (lanes + 1) / 2 }

// sweep is the one group/sweep loop behind FilterBatch and LaneBatch:
// fill each group's column store from src (or take a stationary Lanes
// group as it stands) and sweep the nf filters of dual over it on sc.
func (b *BatchedStripes) sweep(src LaneSource, n, nf int, dual []uint32, outs [][]uint64, sc *batchScratch) (Stats, error) {
	rows := src.Rows()
	if rows == 0 || nf == 0 {
		return Stats{}, nil
	}
	var held [][]uint64
	if l, ok := src.(*Lanes); ok {
		if l.or <= b.fe.mask {
			held = l.groups
		} else {
			src = &windowSource{windows: l.windows, fe: b.fe}
		}
	}
	depth := depth(n)
	sc.grow(n)
	for g, start := 0, 0; start < rows; g, start = g+1, start+groupLanes {
		lanes := min(groupLanes, rows-start)
		words := laneWords(lanes)
		var cols []uint64
		if held != nil {
			cols = held[g]
		} else {
			cols = sc.cols[:depth*words]
			if err := src.Fill(cols, start, lanes); err != nil {
				return Stats{}, err
			}
		}
		b.sweepGroup(cols, words, depth, lanes, nf, dual, outs, start, sc)
	}

	// The closed-form work record of one FastEngine.DotProduct, times
	// every (window, filter) pair the batch stands in for.
	return b.fe.dotStats(rows * nf * n), nil
}

// checkFilters rejects filters whose length is not the window length
// n (unchecked when n < 0: there are no windows) or that hold an
// out-of-range synapse, and returns the OR of every synapse. In-range
// filters pass on one OR-reduction each; only a failing filter is
// walked to report its first bad operand.
func (b *BatchedStripes) checkFilters(filters [][]uint64, n int) (uint64, error) {
	var all uint64
	for f, filter := range filters {
		if n >= 0 && len(filter) != n {
			return 0, fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", n, len(filter))
		}
		var or uint64
		for _, v := range filter {
			or |= v
		}
		all |= or
		if or <= b.fe.mask {
			continue
		}
		for _, v := range filter {
			if err := b.fe.checkOperand("synapse", v); err != nil {
				return 0, fmt.Errorf("bitserial: filter %d: %w", f, err)
			}
		}
	}
	return all, nil
}

// windowSource is the LaneSource of FilterBatch: windows given as
// vectors, transposed into the column store and range checked on the
// way, one OR-reduction per window.
type windowSource struct {
	windows [][]uint64
	fe      *FastEngine
}

// Rows implements LaneSource.
func (s *windowSource) Rows() int { return len(s.windows) }

// Cols implements LaneSource: the common window length, or the first
// window that differs from it.
func (s *windowSource) Cols() (int, error) {
	n := -1
	for w, win := range s.windows {
		if n < 0 {
			n = len(win)
		} else if len(win) != n {
			return 0, fmt.Errorf("bitserial: window %d length %d != %d", w, len(win), n)
		}
	}
	return n, nil
}

// Fill implements LaneSource. Even windows assign the whole word,
// clearing the high half, and odd windows OR into the high half of the
// word their predecessor wrote. A window with an element past the
// operand width is walked to report the first one.
func (s *windowSource) Fill(cols []uint64, start, lanes int) error {
	words := laneWords(lanes)
	for w, win := range s.windows[start : start+lanes] {
		if fillWindow(cols, win, words, w) <= s.fe.mask {
			continue
		}
		for _, v := range win {
			if err := s.fe.checkOperand("neuron", v); err != nil {
				return fmt.Errorf("bitserial: window %d: %w", start+w, err)
			}
		}
	}
	return nil
}

// fillWindow writes window win into lane w of a column store with
// words words per row, as Fill describes, and returns the OR of its
// elements, which Fill tests against the operand mask once per window.
func fillWindow(cols, win []uint64, words, w int) uint64 {
	var or uint64
	word, shift := w>>1, uint(w&1)*32
	for p := 0; 2*p < len(win); p++ {
		v := win[2*p]
		or |= v
		if 2*p+1 < len(win) {
			or |= win[2*p+1]
			v |= win[2*p+1] << 16
		}
		if shift == 0 {
			cols[p*words+word] = v
		} else {
			cols[p*words+word] |= v << 32
		}
	}
	return or
}

// getScratch returns pooled scratch; sweep sizes its column store.
func (b *BatchedStripes) getScratch() *batchScratch {
	sc, _ := b.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{acc: make([]uint64, 4*groupLanes)}
	}
	return sc
}

// putScratch returns sc to the pool, dropping its hold on the caller's
// windows.
func (b *BatchedStripes) putScratch(sc *batchScratch) {
	sc.win = windowSource{}
	b.scratch.Put(sc)
}

// grow sizes the column store for n-element windows.
func (sc *batchScratch) grow(n int) {
	if need := depth(n) * laneWords(groupLanes); cap(sc.cols) < need {
		sc.cols = make([]uint64, need)
	}
	sc.cols = sc.cols[:cap(sc.cols)]
}

// sweepGroup sweeps nf filters over one filled <=64-lane group's
// column store (depth rows of words), four filters at a time, writing
// outs[f][offset+lane]. dual holds the filters' pair words; a trailing
// partial quad is padded with zero filters whose sums are never
// written out.
//
// Each 32-bit half of a lane word accumulates mod 2^32 and reduces by
// accMask once at the end. Reduction mod 2^accWidth is a ring
// homomorphism from it (accWidth <= 32), so this equals the sequential
// engine's per-element wrap exactly. Each slot's a0*w0 + a1*w1 is
// exact: operands below 2^15 make it below 2^31.
func (b *BatchedStripes) sweepGroup(cols []uint64, words, depth, lanes, nf int, dual []uint32, outs [][]uint64, offset int, sc *batchScratch) {
	accMask := b.fe.accMask
	a1 := sc.acc[0*groupLanes : 0*groupLanes+words]
	a2 := sc.acc[1*groupLanes : 1*groupLanes+words]
	a3 := sc.acc[2*groupLanes : 2*groupLanes+words]
	a4 := sc.acc[3*groupLanes : 3*groupLanes+words]
	for f := 0; f < nf; f += 4 {
		q := dual[f*depth : (f+4)*depth]
		sweepQuadDual(cols, words, depth, b.stretch, q[:depth], q[depth:2*depth], q[2*depth:3*depth], q[3*depth:], a1, a2, a3, a4)
		for k, acc := range [4][]uint64{a1, a2, a3, a4} {
			if f+k == nf {
				break
			}
			o := outs[f+k][offset : offset+lanes]
			for j, v := range acc[:lanes/2] {
				lane := o[2*j : 2*j+2 : 2*j+2]
				lane[0] = v & 0xffffffff & accMask
				lane[1] = (v >> 32) & accMask
			}
			if lanes%2 == 1 {
				o[lanes-1] = acc[lanes/2] & accMask
			}
		}
	}
}

// sweepQuadDual sweeps four filters at once over the dual store: fl_k
// holds filter k's pair words, and each 32-bit half of acc_k[w]
// accumulates its lane's Σ_p a0*w0 + a1*w1 mod 2^32. The AVX2 kernel takes lanes in
// blocks of eight (four words); the portable loop finishes the rest.
// Per-half sums mod 2^32 are order-independent, so both agree bit for
// bit.
func sweepQuadDual(cols []uint64, words, pairs, stretch int, fl1, fl2, fl3, fl4 []uint32, acc, acc2, acc3, acc4 []uint64) {
	lo := 0
	if useVec && words >= 4 && pairs > 0 {
		lo = words &^ 3
		sweepQuadDualVec(&cols[0], words, pairs, &fl1[0], &fl2[0], &fl3[0], &fl4[0],
			&acc[0], &acc2[0], &acc3[0], &acc4[0])
	}
	sweepQuadDualGeneric(cols, words, pairs, stretch, lo, words, fl1, fl2, fl3, fl4, acc, acc2, acc3, acc4)
}

// sweepQuadDualGeneric is the one scalar definition of the dual-store
// sweep, over words [lo, hi). A column word c holds four 16-bit
// elements, a0 a1 in its low half and b0 b1 in its high half, so with
// m = the low 16 bits of each half, (c&m)*w0 + (c>>16&m)*w1 is one
// 64-bit word whose halves are a0*w0 + a1*w1 and b0*w0 + b1*w1. Those
// words add up as plain uint64s for a stretch of pairs short enough
// that no low half carries into its high half (dualRows); each further
// stretch's sum is then added into the lanes half by half, mod 2^32.
// At the operand widths of a quantized CNN the first stretch covers
// every pair.
func sweepQuadDualGeneric(cols []uint64, words, pairs, stretch, lo, hi int, fl1, fl2, fl3, fl4 []uint32, acc, acc2, acc3, acc4 []uint64) {
	a1, a2, a3, a4 := acc[lo:hi], acc2[lo:hi], acc3[lo:hi], acc4[lo:hi]
	clear(a1)
	clear(a2)
	clear(a3)
	clear(a4)
	if len(a1) == 0 {
		return
	}
	dualRows(cols, words, 0, min(stretch, pairs), lo, fl1, fl2, fl3, fl4, a1, a2, a3, a4)
	for p0 := stretch; p0 < pairs; p0 += stretch {
		var tmp [4][groupLanes / 2]uint64
		t1, t2, t3, t4 := tmp[0][:len(a1)], tmp[1][:len(a1)], tmp[2][:len(a1)], tmp[3][:len(a1)]
		dualRows(cols, words, p0, min(p0+stretch, pairs), lo, fl1, fl2, fl3, fl4, t1, t2, t3, t4)
		for w := range a1 {
			a1[w], a2[w], a3[w], a4[w] = addHalves(a1[w], t1[w]), addHalves(a2[w], t2[w]), addHalves(a3[w], t3[w]), addHalves(a4[w], t4[w])
		}
	}
}

// dualRows adds rows [p0, p1) of the dual store, words [lo, lo+len(s1)),
// weighted by four filters' pair words, into s_k as plain uint64s. Rows
// go two at a time, so each accumulator load and store is shared by
// sixteen multiplies.
func dualRows(cols []uint64, words, p0, p1, lo int, fl1, fl2, fl3, fl4 []uint32, s1, s2, s3, s4 []uint64) {
	const m = 0x0000ffff0000ffff
	n := len(s1)
	s2, s3, s4 = s2[:n], s3[:n], s4[:n]
	p := p0
	for ; p+1 < p1; p += 2 {
		f1, f2, f3, f4 := fl1[p], fl2[p], fl3[p], fl4[p]
		g1, g2, g3, g4 := fl1[p+1], fl2[p+1], fl3[p+1], fl4[p+1]
		if f1|f2|f3|f4|g1|g2|g3|g4 == 0 {
			continue // zero synapses contribute nothing in any chain
		}
		x10, x11, x20, x21 := uint64(f1&0xffff), uint64(f1>>16), uint64(f2&0xffff), uint64(f2>>16)
		x30, x31, x40, x41 := uint64(f3&0xffff), uint64(f3>>16), uint64(f4&0xffff), uint64(f4>>16)
		y10, y11, y20, y21 := uint64(g1&0xffff), uint64(g1>>16), uint64(g2&0xffff), uint64(g2>>16)
		y30, y31, y40, y41 := uint64(g3&0xffff), uint64(g3>>16), uint64(g4&0xffff), uint64(g4>>16)
		colA := cols[p*words+lo:][:n]
		colB := cols[(p+1)*words+lo:][:n]
		for w := range s1 {
			c, d := colA[w], colB[w]
			c0, c1, d0, d1 := c&m, c>>16&m, d&m, d>>16&m
			s1[w] += c0*x10 + c1*x11 + d0*y10 + d1*y11
			s2[w] += c0*x20 + c1*x21 + d0*y20 + d1*y21
			s3[w] += c0*x30 + c1*x31 + d0*y30 + d1*y31
			s4[w] += c0*x40 + c1*x41 + d0*y40 + d1*y41
		}
	}
	if p < p1 {
		f1, f2, f3, f4 := fl1[p], fl2[p], fl3[p], fl4[p]
		x10, x11, x20, x21 := uint64(f1&0xffff), uint64(f1>>16), uint64(f2&0xffff), uint64(f2>>16)
		x30, x31, x40, x41 := uint64(f3&0xffff), uint64(f3>>16), uint64(f4&0xffff), uint64(f4>>16)
		col := cols[p*words+lo:][:n]
		for w := range s1 {
			c := col[w]
			c0, c1 := c&m, c>>16&m
			s1[w] += c0*x10 + c1*x11
			s2[w] += c0*x20 + c1*x21
			s3[w] += c0*x30 + c1*x31
			s4[w] += c0*x40 + c1*x41
		}
	}
}

// addHalves adds the 32-bit halves of a and b separately, mod 2^32.
func addHalves(a, b uint64) uint64 {
	return uint64(uint32(a)+uint32(b)) | uint64(uint32(a>>32)+uint32(b>>32))<<32
}
