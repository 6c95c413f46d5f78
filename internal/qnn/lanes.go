package qnn

import (
	"sync/atomic"

	"pixel/internal/bitserial"
	"pixel/internal/tensor"
)

// LaneDotter is a Dotter that also sweeps prepared filters over lane
// sources: a conv writes each window straight into the engine's
// lane-major column store instead of lowering it into vectors first,
// and a dense layer holds its weights stationary in the store and
// sweeps its inputs over them. bitserial.BatchedStripes implements it.
// Bits is the operand width the conv range checks its input image
// against, once per image. Prepare and PrepareLanes convert filters
// and vectors once, and a layer keeps what they make; a dense layer
// also prepares its inputs, into pooled scratch, on every call.
type LaneDotter interface {
	Dotter
	Bits() int
	Prepare(pf *bitserial.Filters, filters [][]uint64) error
	PrepareLanes(vectors [][]uint64) (*bitserial.Lanes, error)
	LaneBatch(src bitserial.LaneSource, filters *bitserial.Filters, outs [][]uint64) (bitserial.Stats, error)
}

// prepared returns filters prepared by ld, caching the first success
// in slot. A failure is not cached: it is ld's range error, and
// another engine may accept the filters. A cached handle stays valid
// on any engine, whose LaneBatch range checks it again in O(1).
func prepared(slot *atomic.Pointer[bitserial.Filters], ld LaneDotter, filters [][]uint64) (*bitserial.Filters, error) {
	if pf := slot.Load(); pf != nil {
		return pf, nil
	}
	pf := new(bitserial.Filters)
	if err := ld.Prepare(pf, filters); err != nil {
		return nil, err
	}
	slot.Store(pf)
	return pf, nil
}

// convLanes is the bitserial.LaneSource of one image's conv windows.
// Fill reads each window's (ky, kx, c) elements out of the image and
// writes them into the column store one contiguous column at a time,
// so neither the im2col patch matrix nor its operand copy is built. It
// reads a pair table of the padded image, built on first use. load
// range checks the image first; Fill trusts it.
type convLanes struct {
	in     *tensor.Tensor
	pairs  []uint64 // the pair table (see pairTable); nil until the first Fill
	slots  []uint32 // scratch of pairTable: the padded image, then step+1 zeros
	table  []uint64 // backing store of pairs
	offs   []int    // element i's offset in the padded image from its window's corner
	bases  []int    // per group: each lane's window corner
	lo, hi []int    // per group: each lane pair's two corners
	held   []uint64 // a walk's lowered windows, one output row of them
	heldAt []int    // per slot of held: the window it holds, or -1
	pad    int
	rowLen int // elements per (padded) image row
	step   int // corner distance of neighbouring windows in a row: stride*C
	stride int
	ew     int
	rows   int
}

// load points s at in for an r×r conv of the given stride and pad with
// an ew-wide output of rows windows. It reports false, leaving the
// image to the lowering path and its errors, unless every activation
// lies in [0, mask]: one OR-reduction over the image, negatives
// included, since they convert to words above any mask.
func (s *convLanes) load(in *tensor.Tensor, r, stride, pad, ew, rows int, mask uint64) bool {
	var or uint64
	for _, v := range in.Data {
		or |= uint64(v)
	}
	if or > mask {
		return false
	}
	c := in.C
	s.in, s.pairs, s.pad = in, nil, pad
	s.rowLen = (in.W + 2*pad) * c
	s.offs = s.offs[:0]
	for ky := 0; ky < r; ky++ {
		for j := 0; j < r*c; j++ {
			s.offs = append(s.offs, ky*s.rowLen+j)
		}
	}
	s.step, s.stride, s.ew, s.rows = stride*c, stride, ew, rows
	return true
}

// hold readies window for a walk over the loaded image, with no
// window held yet.
func (s *convLanes) hold() {
	n := len(s.offs)
	if cap(s.held) < s.ew*n {
		s.held = make([]uint64, s.ew*n)
	}
	if cap(s.heldAt) < s.ew {
		s.heldAt = make([]int, s.ew)
	}
	s.held, s.heldAt = s.held[:s.ew*n], s.heldAt[:s.ew]
	for i := range s.heldAt {
		s.heldAt[i] = -1
	}
}

// window returns window w's elements, as the lowering lays them out,
// read out of the padded image on first demand. It holds one output
// row of windows, so while a walk is in w's row, w is lowered once
// however many filters' calls on it are dirty.
func (s *convLanes) window(w int) []uint64 {
	n := len(s.offs)
	slot := w % s.ew
	dst := s.held[slot*n : (slot+1)*n]
	if s.heldAt[slot] != w {
		s.pairTable()
		var corner [1]int
		s.corners(corner[:], w)
		for i, o := range s.offs {
			dst[i] = uint64(s.slots[corner[0]+o])
		}
		s.heldAt[slot] = w
	}
	return dst
}

// release drops s's hold on the image it was loaded with.
func (s *convLanes) release() { s.in, s.pairs = nil, nil }

// Rows implements bitserial.LaneSource.
func (s *convLanes) Rows() int { return s.rows }

// Cols implements bitserial.LaneSource.
func (s *convLanes) Cols() (int, error) { return len(s.offs), nil }

// corners writes the offset in the padded image of the first element
// of windows start, start+1, ... into dst, stepping along output rows.
func (s *convLanes) corners(dst []int, start int) {
	oy, ox := start/s.ew, start%s.ew
	for l := range dst {
		dst[l] = oy*s.stride*s.rowLen + ox*s.step
		if ox++; ox == s.ew {
			oy, ox = oy+1, 0
		}
	}
}

// pairTable returns the (padded) image's pair table, building it on
// first use. Word x is a dual-store column word: the slot of padded
// elements x and x+1 (v[x] | v[x+1]<<16) in its low half and the same
// slot one window along the output row (x+step) in its high half. So
// when two lanes' windows are neighbours in one output row and an
// element pair is adjacent in a kernel row, their column word is one
// load. Activations fit the dual store's 15 bits (load checked them
// against its mask).
func (s *convLanes) pairTable() []uint64 {
	if s.pairs != nil {
		return s.pairs
	}
	in := s.in
	need := (in.H + 2*s.pad) * s.rowLen
	if cap(s.slots) < need+s.step+1 {
		s.slots = make([]uint32, need+s.step+1)
	}
	if cap(s.table) < need {
		s.table = make([]uint64, need)
	}
	v := s.slots[:need+s.step+1]
	clear(v)
	span := in.W * in.C
	for y := 0; y < in.H; y++ {
		row := v[(y+s.pad)*s.rowLen+s.pad*in.C:][:span]
		for j, x := range in.Data[y*span : (y+1)*span] {
			row[j] = uint32(x)
		}
	}
	t, next := s.table[:need], v[s.step:]
	for x := range t {
		t[x] = uint64(v[x]|v[x+1]<<16) | uint64(next[x]|next[x+1]<<16)<<32
	}
	s.pairs = t
	return t
}

// slot is the dual-store slot of element pair (o0, o1) of the window
// cornered at b; o1 < 0 when the window's length is odd and o0 is its
// last element.
func (s *convLanes) slot(o0, o1, b int) uint64 {
	v := s.slots[b+o0]
	if o1 >= 0 {
		v |= s.slots[b+o1] << 16
	}
	return uint64(v)
}

// lowHalves masks the low 16 bits of each 32-bit half of a word: the
// first element of both lanes' slots.
const lowHalves = 0x0000ffff0000ffff

// Fill implements bitserial.LaneSource: element i of lane l is padded
// image element corner(l)+offs[i], and lanes 2j and 2j+1 are the low
// and high halves of word j. When every lane pair of the group is
// two windows a step apart (neighbours in an output row), a word is
// one pair-table load (two when the element pair wraps to the next
// kernel row); a lone last lane, or a group with a pair split across
// rows, is built slot by slot.
func (s *convLanes) Fill(cols []uint64, start, lanes int) error {
	if cap(s.bases) < lanes {
		s.bases, s.lo, s.hi = make([]int, lanes), make([]int, lanes), make([]int, lanes)
	}
	bases := s.bases[:lanes]
	s.corners(bases, start)
	t := s.pairTable()
	words, pairs := (lanes+1)/2, lanes/2
	lo, hi := s.lo[:pairs], s.hi[:pairs]
	oneRow := true // every pair's high window is its low one a step along
	for j := range lo {
		lo[j], hi[j] = bases[2*j], bases[2*j+1]
		oneRow = oneRow && hi[j]-lo[j] == s.step
	}
	last := bases[lanes-1]
	n := len(s.offs)
	for p := 0; 2*p < n; p++ {
		col := cols[p*words : (p+1)*words : (p+1)*words]
		pc := col[:pairs]
		o0, o1 := s.offs[2*p], -1
		if 2*p+1 < n {
			o1 = s.offs[2*p+1]
		}
		a := t[o0:]
		switch {
		case oneRow && o1 == o0+1:
			for j, b := range lo {
				pc[j] = a[b]
			}
		case oneRow && o1 >= 0:
			z := t[o1:]
			for j, b := range lo {
				pc[j] = a[b]&lowHalves | (z[b]&lowHalves)<<16
			}
		case oneRow:
			for j, b := range lo {
				pc[j] = a[b] & lowHalves
			}
		default:
			for j, b := range lo {
				pc[j] = s.slot(o0, o1, b) | s.slot(o0, o1, hi[j])<<32
			}
		}
		if pairs < words {
			col[pairs] = s.slot(o0, o1, last)
		}
	}
	return nil
}
