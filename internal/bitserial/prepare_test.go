package bitserial

import (
	"math/rand"
	"testing"
)

// FuzzLaneBatch holds the prepared-filter entry points to the
// sequential engine: for any geometry the dual store holds (drawn from
// bits 1–16 and, per bit width, the term counts an accumulator of 32
// bits holds plus the one count past that edge; the constructor must
// refuse exactly the rest), window
// length n including odd and 0, lane counts across the
// 8- and 64-lane boundaries, 1–9 filters with zero-weight runs,
// operands random or all at the top of their range, LaneBatch over a
// window source and over stationary Lanes, and FilterBatch, must write
// every pair's FastEngine.DotProduct value and return its summed
// Stats, with the vector kernels on and off.
func FuzzLaneBatch(f *testing.F) {
	f.Add(uint8(4), uint32(512), uint8(150), uint8(64), uint8(6), int64(1), uint8(0), false)
	f.Add(uint8(14), uint32(3), uint8(33), uint8(17), uint8(9), int64(2), uint8(3), true)
	f.Add(uint8(15), uint32(0), uint8(7), uint8(9), uint8(1), int64(3), uint8(0), true)
	f.Add(uint8(7), uint32(1<<14-1), uint8(0), uint8(65), uint8(5), int64(4), uint8(1), false)
	f.Fuzz(func(t *testing.T, bits uint8, terms uint32, n, lanes, nFilters uint8, seed int64, zeroRun uint8, top bool) {
		b := 1 + int(bits)%16
		tm := 1 + int(terms%(uint32(1)<<(32-2*b)+1))
		be, err := NewBatchedStripes(b, tm)
		if err != nil {
			if fe, ferr := NewFastEngine(b, tm); ferr == nil && b <= 15 && fe.accWidth <= 32 {
				t.Fatalf("bits %d, terms %d fit the dual store but were refused: %v", b, tm, err)
			}
			return
		}
		fe := be.fe
		rng := rand.New(rand.NewSource(seed))
		draw := func() uint64 {
			if top {
				return fe.mask
			}
			return rng.Uint64() & fe.mask
		}
		rows, width, count := int(lanes)%130, int(n)%200, 1+int(nFilters)%9
		windows := make([][]uint64, rows)
		for w := range windows {
			windows[w] = make([]uint64, width)
			for i := range windows[w] {
				windows[w][i] = draw()
			}
		}
		filters := make([][]uint64, count)
		for k := range filters {
			filters[k] = make([]uint64, width)
			for i := range filters[k] {
				if run := int(zeroRun) % 8; run == 0 || i%8 >= run {
					filters[k][i] = draw()
				}
			}
		}
		want := make([][]uint64, count)
		var wantStats Stats
		for k, fl := range filters {
			want[k] = make([]uint64, rows)
			for w, win := range windows {
				v, st, err := fe.DotProduct(win, fl)
				if err != nil {
					t.Fatal(err)
				}
				want[k][w] = v
				wantStats.add(st)
			}
		}

		pf, err := prepare(be, filters)
		if err != nil {
			t.Fatal(err)
		}
		held, err := be.PrepareLanes(windows)
		if err != nil {
			t.Fatal(err)
		}
		defer setVecForTest(useVec)
		for _, vec := range []bool{true, false} {
			setVecForTest(vec)
			for _, path := range []struct {
				name string
				run  func(outs [][]uint64) (Stats, error)
			}{
				{"windows", func(outs [][]uint64) (Stats, error) {
					return be.LaneBatch(&windowSource{windows: windows, fe: fe}, pf, outs)
				}},
				{"lanes", func(outs [][]uint64) (Stats, error) { return be.LaneBatch(held, pf, outs) }},
				{"filterbatch", func(outs [][]uint64) (Stats, error) { return be.FilterBatch(windows, filters, outs) }},
			} {
				outs := make([][]uint64, count)
				for k := range outs {
					outs[k] = make([]uint64, rows)
					for w := range outs[k] {
						outs[k][w] = ^uint64(0) // every slot must be written
					}
				}
				st, err := path.run(outs)
				if err != nil {
					t.Fatalf("%s vec=%v: %v", path.name, vec, err)
				}
				if st != wantStats {
					t.Fatalf("%s vec=%v: Stats %+v, want %+v", path.name, vec, st, wantStats)
				}
				for k := range outs {
					for w := range outs[k] {
						if outs[k][w] != want[k][w] {
							t.Fatalf("%s vec=%v: outs[%d][%d] = %d, want %d",
								path.name, vec, k, w, outs[k][w], want[k][w])
						}
					}
				}
			}
		}
	})
}

// TestPrepareErrors pins the prepared handle's checks to FilterBatch's
// error text: a ragged filter bank and an out-of-range synapse at
// Prepare, a filter length that is not the window length and an
// out-of-range synapse on a narrower engine at LaneBatch.
func TestPrepareErrors(t *testing.T) {
	be, err := NewBatchedStripes(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewBatchedStripes(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	windows := [][]uint64{{1, 2}, {3, 4}}
	outs := [][]uint64{make([]uint64, 2)}
	filterBatchErr := func(filters [][]uint64) string {
		_, err := be.FilterBatch(windows, filters, [][]uint64{make([]uint64, 2), make([]uint64, 2)}[:len(filters)])
		return err.Error()
	}

	if _, err := prepare(be, [][]uint64{{1, 2}, {3}}); err == nil || err.Error() != filterBatchErr([][]uint64{{1, 2}, {3}}) {
		t.Errorf("ragged bank: Prepare error %v, FilterBatch %q", err, filterBatchErr([][]uint64{{1, 2}, {3}}))
	}
	if _, err := prepare(be, [][]uint64{{1, 99}}); err == nil || err.Error() != filterBatchErr([][]uint64{{1, 99}}) {
		t.Errorf("over-range synapse: Prepare error %v, FilterBatch %q", err, filterBatchErr([][]uint64{{1, 99}}))
	}

	short, err := prepare(be, [][]uint64{{5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.LaneBatch(&windowSource{windows: windows, fe: be.fe}, short, outs); err == nil || err.Error() != filterBatchErr([][]uint64{{5}}) {
		t.Errorf("filter length: LaneBatch error %v, FilterBatch %q", err, filterBatchErr([][]uint64{{5}}))
	}

	// Prepared on an 8-bit engine, the bank is out of a 4-bit engine's
	// range, and that engine's LaneBatch says so as FilterBatch would.
	big, err := prepare(wide, [][]uint64{{5, 6}, {7, 200}})
	if err != nil {
		t.Fatal(err)
	}
	two := [][]uint64{make([]uint64, 2), make([]uint64, 2)}
	if _, err := be.LaneBatch(&windowSource{windows: windows, fe: be.fe}, big, two); err == nil || err.Error() != filterBatchErr([][]uint64{{5, 6}, {7, 200}}) {
		t.Errorf("narrower engine: LaneBatch error %v, FilterBatch %q", err, filterBatchErr([][]uint64{{5, 6}, {7, 200}}))
	}
	// A view that leaves the out-of-range filter behind is in range:
	// 1*5+2*6 and 3*5+4*6.
	if _, err := be.LaneBatch(&windowSource{windows: windows, fe: be.fe}, big.Slice(0, 1), outs); err != nil || outs[0][0] != 17 || outs[0][1] != 39 {
		t.Errorf("in-range view of an out-of-range bank: %v, %v", outs[0], err)
	}
}

// TestPrepareAcrossWidths checks a handle and a Lanes prepared on a
// 4-bit engine and swept by an 8-bit one, and the other way round, and
// views of a bank (Slice) swept on their own: every result equals
// FilterBatch's.
func TestPrepareAcrossWidths(t *testing.T) {
	narrow, err := NewBatchedStripes(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewBatchedStripes(8, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	vectors := func(count, n int) [][]uint64 {
		v := make([][]uint64, count)
		for i := range v {
			v[i] = make([]uint64, n)
			for j := range v[i] {
				v[i][j] = uint64(rng.Intn(16))
			}
		}
		return v
	}
	windows, filters := vectors(70, 21), vectors(11, 21)
	for _, eng := range []*BatchedStripes{narrow, wide} {
		want := make([][]uint64, len(filters))
		for k := range want {
			want[k] = make([]uint64, len(windows))
		}
		if _, err := eng.FilterBatch(windows, filters, want); err != nil {
			t.Fatal(err)
		}
		for _, prep := range []*BatchedStripes{narrow, wide} {
			pf, err := prepare(prep, filters)
			if err != nil {
				t.Fatal(err)
			}
			held, err := prep.PrepareLanes(windows)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(filters); lo += 4 {
				hi := min(lo+4+rng.Intn(8), len(filters))
				outs := make([][]uint64, hi-lo)
				for k := range outs {
					outs[k] = make([]uint64, len(windows))
				}
				if _, err := eng.LaneBatch(held, pf.Slice(lo, hi), outs); err != nil {
					t.Fatal(err)
				}
				for k := range outs {
					for w, v := range outs[k] {
						if v != want[lo+k][w] {
							t.Fatalf("engine %d-bit, prepared %d-bit, filters [%d,%d): outs[%d][%d] = %d, want %d",
								eng.Bits(), prep.Bits(), lo, hi, k, w, v, want[lo+k][w])
						}
					}
				}
			}
		}
	}
}

// prepare is Prepare into a new handle.
func prepare(be *BatchedStripes, filters [][]uint64) (*Filters, error) {
	pf := new(Filters)
	return pf, be.Prepare(pf, filters)
}

// TestFillWindowOr pins the one-OR range check of a window fill to the
// OR of the window's own elements: an in-range window, odd-indexed
// elements included, must pass Fill's mask test without the
// per-element walk, whatever half of its pair slots it fills.
func TestFillWindowOr(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 150} {
		for w := 0; w < 3; w++ {
			win := make([]uint64, n)
			var want uint64
			for i := range win {
				win[i] = uint64(1 + rng.Intn(15))
				want |= win[i]
			}
			words := 2
			cols := make([]uint64, max(n, 1)*words)
			if got := fillWindow(cols, win, words, w%2); got != want {
				t.Errorf("n=%d lane %d: fill OR %#x, want the elements' OR %#x", n, w%2, got, want)
			}
		}
	}
}

// TestPrepareReuse prepares one handle over and over, as a dense
// layer does from pooled scratch, with banks of different counts and
// lengths, on a 4-bit and an 8-bit engine: every sweep equals
// FilterBatch, and a failed prepare into the reused handle reports the
// error a new handle does.
func TestPrepareReuse(t *testing.T) {
	wide, err := NewBatchedStripes(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewBatchedStripes(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var pf Filters
	for trial := 0; trial < 40; trial++ {
		be, maxV := narrow, uint64(15)
		if trial%3 == 2 {
			be, maxV = wide, 255
		}
		count, n, rows := 1+rng.Intn(9), rng.Intn(40), 1+rng.Intn(70)
		vectors := func(count int) [][]uint64 {
			v := make([][]uint64, count)
			for i := range v {
				v[i] = make([]uint64, n)
				for j := range v[i] {
					v[i][j] = rng.Uint64() & maxV
				}
			}
			return v
		}
		filters, windows := vectors(count), vectors(rows)
		if err := be.Prepare(&pf, filters); err != nil {
			t.Fatal(err)
		}
		want, got := make([][]uint64, count), make([][]uint64, count)
		for k := range want {
			want[k], got[k] = make([]uint64, rows), make([]uint64, rows)
		}
		if _, err := be.FilterBatch(windows, filters, want); err != nil {
			t.Fatal(err)
		}
		if _, err := be.LaneBatch(&windowSource{windows: windows, fe: be.fe}, &pf, got); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			for w := range want[k] {
				if got[k][w] != want[k][w] {
					t.Fatalf("trial %d (%d-bit, %d filters, n=%d): outs[%d][%d] = %d, want %d",
						trial, be.Bits(), count, n, k, w, got[k][w], want[k][w])
				}
			}
		}
	}
	bad := [][]uint64{{1, 2}, {3, 99}}
	_, want := prepare(narrow, bad)
	if err := narrow.Prepare(&pf, bad); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("out-of-range bank: reused handle error %v, new handle %v", err, want)
	}
}
