package tensor

import "fmt"

// PatchMatrix is the im2col lowering of a convolution input: one row
// per output position (row-major over (oy, ox)), each row the RxRxC
// window values in the same (ky, kx, c) order as Kernel.Filter, the
// order the qnn conv layers consume them in. Lowering once and reusing
// the rows across every filter replaces the 6-deep scalar loop of a
// direct convolution with M dense dot products per row — the
// transformation that makes both the photonic PE mapping and our
// simulation of it tractable.
type PatchMatrix struct {
	// EH, EW are the output spatial dimensions; Rows == EH*EW.
	EH, EW int
	// Rows and Cols describe the matrix: Cols == R*R*C.
	Rows, Cols int
	// Data is the row-major backing store.
	Data []int64
}

// Row returns row i (the window of output position i) as a slice into
// the backing store.
func (p *PatchMatrix) Row(i int) []int64 {
	return p.Data[i*p.Cols : (i+1)*p.Cols : (i+1)*p.Cols]
}

// convShape computes and validates the output spatial extent of a
// convolution of a kernel of side r over in with the given stride and
// zero padding.
func convShape(in *Tensor, r, stride, pad int) (eh, ew int, err error) {
	if stride < 1 || pad < 0 {
		return 0, 0, fmt.Errorf("tensor: invalid stride %d / pad %d", stride, pad)
	}
	if r < 1 {
		return 0, 0, fmt.Errorf("tensor: invalid kernel size %d", r)
	}
	eh = (in.H+2*pad-r)/stride + 1
	ew = (in.W+2*pad-r)/stride + 1
	if eh < 1 || ew < 1 {
		return 0, 0, fmt.Errorf("tensor: kernel %d too large for input %dx%d with pad %d", r, in.H, in.W, pad)
	}
	return eh, ew, nil
}

// Lower computes the im2col patch matrix of in for a kernel of side r
// with the given stride and zero padding. Interior windows (no
// out-of-bounds rows or columns) take a fast path that copies R
// contiguous R*C spans per window instead of bounds-checking every
// element through At; boundary windows fall back to the padded
// per-element gather.
func Lower(in *Tensor, r, stride, pad int) (*PatchMatrix, error) {
	p := new(PatchMatrix)
	if err := LowerInto(p, in, r, stride, pad); err != nil {
		return nil, err
	}
	return p, nil
}

// LowerInto is Lower writing into p, reusing p's backing store when it
// is already large enough — the pooled-scratch form batched inference
// leans on to keep the per-image hot path allocation-free.
func LowerInto(p *PatchMatrix, in *Tensor, r, stride, pad int) error {
	eh, ew, err := convShape(in, r, stride, pad)
	if err != nil {
		return err
	}
	cols := r * r * in.C
	need := eh * ew * cols
	if cap(p.Data) < need {
		p.Data = make([]int64, need)
	}
	p.EH, p.EW, p.Rows, p.Cols = eh, ew, eh*ew, cols
	p.Data = p.Data[:need]
	span := r * in.C // one kernel row of a window is contiguous in HWC
	for oy := 0; oy < eh; oy++ {
		y0 := oy*stride - pad
		interiorY := y0 >= 0 && y0+r <= in.H
		for ox := 0; ox < ew; ox++ {
			x0 := ox*stride - pad
			row := p.Row(oy*ew + ox)
			if interiorY && x0 >= 0 && x0+r <= in.W {
				// Interior fast path: each (ky, *, *) span is one copy.
				for ky := 0; ky < r; ky++ {
					base := ((y0+ky)*in.W + x0) * in.C
					copy(row[ky*span:(ky+1)*span], in.Data[base:base+span])
				}
				continue
			}
			i := 0
			for ky := 0; ky < r; ky++ {
				for kx := 0; kx < r; kx++ {
					for c := 0; c < in.C; c++ {
						row[i] = in.At(y0+ky, x0+kx, c)
						i++
					}
				}
			}
		}
	}
	return nil
}
