package qnn

import (
	"pixel/internal/bitserial"
	"pixel/internal/tensor"
)

// LaneDotter is a Dotter that also takes a conv's windows as a lane
// source: the conv writes each window straight into the engine's
// lane-major column store instead of lowering it into vectors first.
// bitserial.BatchedStripes implements it. Bits is the operand width
// the conv range checks its input image against, once per image.
type LaneDotter interface {
	Dotter
	Bits() int
	LaneBatch(src bitserial.LaneSource, filters [][]uint64, outs [][]uint64) (bitserial.Stats, error)
}

// convLanes is the bitserial.LaneSource of one image's conv windows.
// Fill reads each window's (ky, kx, c) elements out of the image —
// zero padded once into a pooled copy when the conv pads — and writes
// them into the column store one contiguous column at a time, so
// neither the im2col patch matrix nor its operand copy is built. load
// range checks the image first; Fill trusts it.
type convLanes struct {
	img    []int64  // the (padded) image, HWC
	padded []int64  // backing store of the padded copy
	pairs  []uint64 // pairs[x] = img[x] | img[x+step]<<32, built on first packed Fill
	paired bool     // pairs is built for img
	offs   []int    // element i's offset in img from its window's corner
	bases  []int    // per group: each lane's (or lane pair's) window corner
	rowLen int      // elements per (padded) image row
	step   int      // corner distance of neighbouring windows in a row: stride*C
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
	s.img = in.Data
	s.rowLen = (in.W + 2*pad) * c
	if pad > 0 {
		need := (in.H + 2*pad) * s.rowLen
		if cap(s.padded) < need {
			s.padded = make([]int64, need)
		}
		s.img = s.padded[:need]
		clear(s.img)
		span := in.W * c
		for y := 0; y < in.H; y++ {
			copy(s.img[(y+pad)*s.rowLen+pad*c:], in.Data[y*span:(y+1)*span])
		}
	}
	s.offs = s.offs[:0]
	for ky := 0; ky < r; ky++ {
		for j := 0; j < r*c; j++ {
			s.offs = append(s.offs, ky*s.rowLen+j)
		}
	}
	s.paired = false
	s.step, s.stride, s.ew, s.rows = stride*c, stride, ew, rows
	return true
}

// release drops s's hold on the image it was loaded with.
func (s *convLanes) release() { s.img = nil }

// Rows implements bitserial.LaneSource.
func (s *convLanes) Rows() int { return s.rows }

// Cols implements bitserial.LaneSource.
func (s *convLanes) Cols() (int, error) { return len(s.offs), nil }

// corner is the offset in img of window pos's first element.
func (s *convLanes) corner(pos int) int {
	return (pos/s.ew)*s.stride*s.rowLen + (pos%s.ew)*s.step
}

// Fill implements bitserial.LaneSource: element i of lane l is
// img[corner(l)+offs[i]]. Packed, lanes 2j and 2j+1 are the low and
// high halves of word j; when every pair of the group lies in one
// output row, the pair's word is one load from the pair table.
func (s *convLanes) Fill(cols []uint64, start, lanes int, packed bool) error {
	if cap(s.bases) < lanes {
		s.bases = make([]int, lanes)
	}
	img := s.img
	if !packed {
		bases := s.bases[:lanes]
		for l := range bases {
			bases[l] = s.corner(start + l)
		}
		for i, off := range s.offs {
			col := cols[i*lanes : (i+1)*lanes : (i+1)*lanes]
			src := img[off:]
			for l, b := range bases {
				col[l] = uint64(src[b])
			}
		}
		return nil
	}
	words, pairs := (lanes+1)/2, lanes/2
	lo, hi := s.bases[:pairs], s.bases[pairs:2*pairs]
	oneRow := true
	for j := range lo {
		pos := start + 2*j
		lo[j], hi[j] = s.corner(pos), s.corner(pos+1)
		oneRow = oneRow && pos%s.ew != s.ew-1
	}
	if oneRow && !s.paired {
		s.pairs = buildPairs(s.pairs, img, s.step)
		s.paired = true
	}
	last := s.corner(start + lanes - 1)
	for i, off := range s.offs {
		col := cols[i*words : (i+1)*words : (i+1)*words]
		if oneRow {
			src := s.pairs[off:]
			for j, b := range lo {
				col[j] = src[b]
			}
		} else {
			src := img[off:]
			for j, b := range lo {
				col[j] = uint64(src[b]) | uint64(src[hi[j]])<<32
			}
		}
		if pairs < words {
			col[pairs] = uint64(img[last+off])
		}
	}
	return nil
}

// buildPairs fills dst (grown to len(img)) with img[x] | img[x+step]<<32,
// the packed word of two neighbouring windows' element at x; the last
// step entries have no partner and keep a zero high half.
func buildPairs(dst []uint64, img []int64, step int) []uint64 {
	if cap(dst) < len(img) {
		dst = make([]uint64, len(img))
	}
	dst = dst[:len(img)]
	for x, v := range img {
		dst[x] = uint64(v)
		if x+step < len(img) {
			dst[x] |= uint64(img[x+step]) << 32
		}
	}
	return dst
}
