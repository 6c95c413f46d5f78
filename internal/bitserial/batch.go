package bitserial

import (
	"fmt"
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
// (window, filter) pair. The lanes accumulate in full 64-bit words and
// are reduced by the accumulator mask once per dot product; because
// reduction mod 2^accWidth is a ring homomorphism from arithmetic mod
// 2^64, that single reduction lands on exactly the value the
// sequential engine's per-element wrap produces — the same
// collapse-the-bit-serial-loop move NewFastEngine makes against the
// gate-level engine, one level up. Results (values and Stats) are
// bit-identical to running each window through FastEngine
// sequentially; TestBatchedStripesEquivalence pins the two together.
//
// The per-call setup (transpose and validation) is hoisted once per
// 64-window group and reused across every filter of a DotProductsMulti
// call — the hoisted-setup idiom that makes batched conv layers pay it
// once per group rather than once per (window, filter) pair. LaneBatch
// goes one step further: its LaneSource writes the group's column
// store itself, so a conv's windows go from its input image to the
// sweep without being lowered into vectors first.
//
// A BatchedStripes is safe for concurrent use: per-call scratch comes
// from an internal pool.
type BatchedStripes struct {
	fe      *FastEngine
	scratch sync.Pool // *batchScratch
}

// batchScratch is the pooled per-call working set: the lane-major
// column store and four filter accumulator rows (filters are swept
// four at a time so each column load feeds four independent
// accumulate chains).
type batchScratch struct {
	win  windowSource // FilterBatch's lane source
	cols []uint64     // [element*groupLanes + lane]
	acc  []uint64     // [lane], filter f
	acc2 []uint64     // [lane], filter f+1
	acc3 []uint64     // [lane], filter f+2
	acc4 []uint64     // [lane], filter f+3
}

// NewBatchedStripes returns a batched engine with the same operand and
// accumulator geometry as NewFastEngine(bits, terms).
func NewBatchedStripes(bits, terms int) (*BatchedStripes, error) {
	fe, err := NewFastEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	return &BatchedStripes{fe: fe}, nil
}

// Bits returns the operand precision.
func (b *BatchedStripes) Bits() int { return b.fe.bits }

// AccumulatorWidth returns the accumulator width in bits.
func (b *BatchedStripes) AccumulatorWidth() int { return b.fe.accWidth }

// Fast returns the equivalent sequential engine — the ground truth the
// batched path is verified against, and the fallback for single calls.
func (b *BatchedStripes) Fast() *FastEngine { return b.fe }

// DotProduct computes one dot product through the sequential engine —
// the qnn.Dotter form for unbatched callers.
func (b *BatchedStripes) DotProduct(neurons, synapses []uint64) (uint64, error) {
	v, _, err := b.fe.DotProduct(neurons, synapses)
	return v, err
}

// DotProducts writes the dot product of each window against weights
// into out — DotBatch without the Stats.
func (b *BatchedStripes) DotProducts(windows [][]uint64, weights []uint64, out []uint64) error {
	_, err := b.DotBatch(windows, weights, out)
	return err
}

// DotProductsMulti evaluates every filter against every window,
// writing outs[f][w] — the qnn.MultiDotter form of FilterBatch. The
// window transpose is shared across all filters.
func (b *BatchedStripes) DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error {
	_, err := b.FilterBatch(windows, filters, outs)
	return err
}

// DotBatch computes windows[w] · weights for every w, writing out[w].
// The value and the accumulated Stats are bit-identical to len(windows)
// sequential FastEngine.DotProduct calls.
func (b *BatchedStripes) DotBatch(windows [][]uint64, weights []uint64, out []uint64) (Stats, error) {
	if len(out) != len(windows) {
		return Stats{}, fmt.Errorf("bitserial: out length %d != %d windows", len(out), len(windows))
	}
	return b.FilterBatch(windows, [][]uint64{weights}, [][]uint64{out})
}

// FilterBatch computes outs[f][w] = windows[w] · filters[f] for every
// (filter, window) pair, transposing each 64-window group into the
// lane-major column store once and sweeping all filters over it: it is
// LaneBatch with the windows as the lane source. Values and Stats are
// bit-identical to the sequential per-pair FastEngine calls.
func (b *BatchedStripes) FilterBatch(windows [][]uint64, filters [][]uint64, outs [][]uint64) (Stats, error) {
	sc := b.getScratch()
	sc.win = windowSource{windows: windows, fe: b.fe}
	defer b.putScratch(sc)
	return b.laneBatch(&sc.win, filters, outs, sc)
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
	// Fill writes windows [start, start+lanes) into cols, element i of
	// lane l at cols[i*words+l] with words = lanes. Packed, two lanes
	// share a word: words = (lanes+1)/2, and lane l is the low (even l)
	// or high (odd l) 32 bits of word l/2; a word with no odd lane has
	// a zero high half. Fill must overwrite every word of cols.
	Fill(cols []uint64, start, lanes int, packed bool) error
}

// LaneBatch computes outs[f][w] = window w · filters[f] for every
// window src supplies, filling each 64-window group's column store from
// src and sweeping all filters over it. Values and Stats are
// bit-identical to FilterBatch over the same windows; a source that
// reports an error ends the call with it.
func (b *BatchedStripes) LaneBatch(src LaneSource, filters [][]uint64, outs [][]uint64) (Stats, error) {
	sc := b.getScratch()
	defer b.putScratch(sc)
	return b.laneBatch(src, filters, outs, sc)
}

// laneBatch is the one group/sweep loop behind FilterBatch and
// LaneBatch: validate the outputs, the window length and the filters,
// then fill and sweep each group on sc.
func (b *BatchedStripes) laneBatch(src LaneSource, filters [][]uint64, outs [][]uint64, sc *batchScratch) (Stats, error) {
	rows := src.Rows()
	if len(outs) != len(filters) {
		return Stats{}, fmt.Errorf("bitserial: %d output rows != %d filters", len(outs), len(filters))
	}
	for f, o := range outs {
		if len(o) != rows {
			return Stats{}, fmt.Errorf("bitserial: output row %d length %d != %d windows", f, len(o), rows)
		}
	}
	n, err := src.Cols()
	if err != nil {
		return Stats{}, err
	}
	if err := b.checkFilters(filters, n); err != nil {
		return Stats{}, err
	}
	if rows == 0 || len(filters) == 0 {
		return Stats{}, nil
	}

	sc.grow(n)
	// Bit-slice two lanes per machine word when the accumulator fits a
	// 32-bit half AND the true (unwrapped) low-half sum can never carry
	// into the high half: every per-word operation then performs two
	// lane MACs. maxProd bounds one product; n*maxProd bounds the sum.
	maxProd := ((uint64(1) << b.fe.bits) - 1) * ((uint64(1) << b.fe.bits) - 1)
	packed := b.fe.accWidth <= 32 && maxProd > 0 && uint64(n) <= (1<<32-1)/maxProd
	for start := 0; start < rows; start += groupLanes {
		lanes := min(groupLanes, rows-start)
		words := laneWords(lanes, packed)
		cols := sc.cols[:n*words]
		if err := src.Fill(cols, start, lanes, packed); err != nil {
			return Stats{}, err
		}
		b.sweepGroup(cols, words, n, lanes, filters, outs, start, sc, packed)
	}

	// The closed-form work record of one FastEngine.DotProduct, times
	// every (window, filter) pair the batch stands in for.
	return b.fe.dotStats(rows * len(filters) * n), nil
}

// laneWords is the column store's words per element for a group of
// lanes: one per lane, or one per lane pair when packed.
func laneWords(lanes int, packed bool) int {
	if packed {
		return (lanes + 1) / 2
	}
	return lanes
}

// checkFilters rejects filters whose length is not the window length
// n (unchecked when n < 0: there are no windows) or that hold an
// out-of-range synapse. In-range filters pass on one OR-reduction
// each; only a failing filter is walked to report its first bad
// operand.
func (b *BatchedStripes) checkFilters(filters [][]uint64, n int) error {
	for f, filter := range filters {
		if n >= 0 && len(filter) != n {
			return fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", n, len(filter))
		}
		var or uint64
		for _, v := range filter {
			or |= v
		}
		if or <= b.fe.mask {
			continue
		}
		for _, v := range filter {
			if err := b.fe.checkOperand("synapse", v); err != nil {
				return fmt.Errorf("bitserial: filter %d: %w", f, err)
			}
		}
	}
	return nil
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

// Fill implements LaneSource. cols[i*words+w] receives the group's
// values at element i — one word per lane unpacked; packed, even
// windows assign the whole word, clearing the high half, and odd
// windows OR into the high half of the word their predecessor wrote.
// A window with an element past the operand width is walked to report
// the first one.
func (s *windowSource) Fill(cols []uint64, start, lanes int, packed bool) error {
	words := laneWords(lanes, packed)
	for w, win := range s.windows[start : start+lanes] {
		word, shift := w, uint(0)
		if packed {
			word, shift = w>>1, uint(w&1)*32
		}
		var or uint64
		for i, v := range win {
			or |= v
			if shift == 0 {
				cols[i*words+word] = v
			} else {
				cols[i*words+word] |= v << 32
			}
		}
		if or <= s.fe.mask {
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

// getScratch returns pooled scratch; laneBatch sizes its column store.
func (b *BatchedStripes) getScratch() *batchScratch {
	sc, _ := b.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{
			acc:  make([]uint64, groupLanes),
			acc2: make([]uint64, groupLanes),
			acc3: make([]uint64, groupLanes),
			acc4: make([]uint64, groupLanes),
		}
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
	need := max(n, 0) * groupLanes
	if cap(sc.cols) < need {
		sc.cols = make([]uint64, need)
	}
	sc.cols = sc.cols[:need]
}

// sweepGroup sweeps every filter over one filled <=64-lane group's
// column store (words per element) in quads, pairs and singles,
// writing outs[f][offset+lane].
//
// With packed set, two lanes are bit-sliced into each machine word:
// window 2j rides the low 32 bits of word j and window 2j+1 the high
// 32, so every multiply-accumulate performs two lane MACs — the
// software dual of packing two λ channels onto one waveguide. The
// caller guarantees (a) accWidth <= 32, so each half reduces by
// accMask independently, and (b) n * maxProduct < 2^32, so the true
// low-half sum never carries into the high half; under those bounds
// v*wt distributes over the packed halves exactly and each half
// accumulates mod 2^32, which the final per-half accMask reduction
// collapses to the sequential engine's value (same ring-homomorphism
// argument as the unpacked sweep, per half).
func (b *BatchedStripes) sweepGroup(cols []uint64, words, n, lanes int, filters [][]uint64, outs [][]uint64, offset int, sc *batchScratch, packed bool) {
	accMask := b.fe.accMask
	acc := sc.acc[:words]
	acc2 := sc.acc2[:words]
	acc3 := sc.acc3[:words]
	acc4 := sc.acc4[:words]
	writeOut := func(o, a []uint64) {
		if packed {
			unpackPacked(o, a, offset, lanes, accMask)
			return
		}
		for w, v := range a {
			o[offset+w] = v & accMask
		}
	}
	// Filters go four at a time so each column load feeds four
	// independent multiply-accumulate chains. Lanes accumulate mod
	// 2^64 and reduce by accMask once at the end; reduction mod
	// 2^accWidth is a ring homomorphism, so this equals the sequential
	// engine's per-element wrap exactly.
	f := 0
	for ; f+3 < len(filters); f += 4 {
		sweepQuad(cols, words, n, filters[f], filters[f+1], filters[f+2], filters[f+3],
			acc, acc2, acc3, acc4, packed)
		writeOut(outs[f], acc)
		writeOut(outs[f+1], acc2)
		writeOut(outs[f+2], acc3)
		writeOut(outs[f+3], acc4)
	}
	if f+1 < len(filters) {
		sweepPair(cols, words, n, filters[f], filters[f+1], acc, acc2)
		writeOut(outs[f], acc)
		writeOut(outs[f+1], acc2)
		f += 2
	}
	if f < len(filters) {
		sweepOne(cols, words, n, filters[f], acc)
		writeOut(outs[f], acc)
	}
}

// sweepQuad computes acc_k[w] = Σ_i cols[i*words+w] * fl_k[i] mod 2^64
// for four filters at once, dispatching lanes in blocks of four to the
// AVX2 kernel when the host has one and finishing (or fully running)
// on the portable scalar sweep. Sums mod 2^64 are order-independent,
// so the vector kernel's different accumulation order is bit-identical
// to the scalar one.
func sweepQuad(cols []uint64, words, n int, fl1, fl2, fl3, fl4, acc, acc2, acc3, acc4 []uint64, packed bool) {
	lo := 0
	if useVec && words >= 4 && n > 0 {
		lo = words &^ 3
		if packed {
			sweepQuadPackedVec(&cols[0], words, n, &fl1[0], &fl2[0], &fl3[0], &fl4[0],
				&acc[0], &acc2[0], &acc3[0], &acc4[0])
		} else {
			sweepQuadVec(&cols[0], words, n, &fl1[0], &fl2[0], &fl3[0], &fl4[0],
				&acc[0], &acc2[0], &acc3[0], &acc4[0])
		}
	}
	sweepQuadGeneric(cols, words, n, lo, words, fl1, fl2, fl3, fl4, acc, acc2, acc3, acc4)
}

// sweepQuadGeneric is the portable four-filter sweep over lanes
// [lo, words) of the column store: the scalar fallback and the tail
// pass behind the four-lane-blocked vector kernel.
func sweepQuadGeneric(cols []uint64, words, n, lo, hi int, fl1, fl2, fl3, fl4, acc, acc2, acc3, acc4 []uint64) {
	a1, a2, a3, a4 := acc[lo:hi], acc2[lo:hi], acc3[lo:hi], acc4[lo:hi]
	for w := range a1 {
		a1[w] = 0
		a2[w] = 0
		a3[w] = 0
		a4[w] = 0
	}
	if len(a1) == 0 {
		return
	}
	// Elements go two at a time, so each accumulator load/store is
	// shared by eight multiplies — the sweep is memory-bound, and this
	// halves accumulator traffic per MAC.
	i := 0
	for ; i+1 < n; i += 2 {
		wtA1, wtA2, wtA3, wtA4 := fl1[i], fl2[i], fl3[i], fl4[i]
		wtB1, wtB2, wtB3, wtB4 := fl1[i+1], fl2[i+1], fl3[i+1], fl4[i+1]
		if wtA1|wtA2|wtA3|wtA4|wtB1|wtB2|wtB3|wtB4 == 0 {
			continue // zero synapses contribute nothing in any chain
		}
		colA := cols[i*words+lo : i*words+hi : i*words+hi]
		colB := cols[(i+1)*words+lo : (i+1)*words+hi : (i+1)*words+hi]
		_ = colA[len(a1)-1]
		_ = colB[len(a1)-1]
		for w := range a1 {
			ca, cb := colA[w], colB[w]
			a1[w] += ca*wtA1 + cb*wtB1
			a2[w] += ca*wtA2 + cb*wtB2
			a3[w] += ca*wtA3 + cb*wtB3
			a4[w] += ca*wtA4 + cb*wtB4
		}
	}
	for ; i < n; i++ {
		wt, wt2, wt3, wt4 := fl1[i], fl2[i], fl3[i], fl4[i]
		if wt|wt2|wt3|wt4 == 0 {
			continue
		}
		col := cols[i*words+lo : i*words+hi : i*words+hi]
		_ = col[len(a1)-1]
		for w := range a1 {
			cv := col[w]
			a1[w] += cv * wt
			a2[w] += cv * wt2
			a3[w] += cv * wt3
			a4[w] += cv * wt4
		}
	}
}

// sweepPair is the two-filter scalar sweep for a trailing filter pair.
func sweepPair(cols []uint64, words, n int, fl1, fl2, acc, acc2 []uint64) {
	a1, a2 := acc[:words], acc2[:words]
	for w := range a1 {
		a1[w] = 0
		a2[w] = 0
	}
	if len(a1) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		wt, wt2 := fl1[i], fl2[i]
		if wt == 0 && wt2 == 0 {
			continue // zero synapses contribute nothing in either chain
		}
		col := cols[i*words : i*words+words : i*words+words]
		_ = col[len(a1)-1]
		for w := range a1 {
			cv := col[w]
			a1[w] += cv * wt
			a2[w] += cv * wt2
		}
	}
}

// sweepOne is the single-filter scalar sweep for a trailing filter.
func sweepOne(cols []uint64, words, n int, fl, acc []uint64) {
	a := acc[:words]
	for w := range a {
		a[w] = 0
	}
	if len(a) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		wt := fl[i]
		if wt == 0 {
			continue
		}
		col := cols[i*words : i*words+words : i*words+words]
		_ = col[len(a)-1]
		for w := range a {
			a[w] += col[w] * wt
		}
	}
}

// unpackPacked splits each packed accumulator word back into its two
// lanes, reducing each 32-bit half by the accumulator mask.
func unpackPacked(o []uint64, acc []uint64, offset, lanes int, accMask uint64) {
	for j, a := range acc {
		o[offset+2*j] = a & 0xffffffff & accMask
		if 2*j+1 < lanes {
			o[offset+2*j+1] = (a >> 32) & accMask
		}
	}
}
