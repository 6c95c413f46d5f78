// Package tensor provides a minimal integer tensor with reference
// implementations of the CNN operators (2-D convolution, max pooling,
// fully-connected) used to validate end-to-end inference through the
// OMAC datapaths. Values are int64; quantized networks in the examples
// use unsigned activations/weights that fit the OMAC operand widths.
package tensor

import "fmt"

// Tensor is a dense 3-D tensor in HWC layout (height, width, channels).
// A fully-connected vector is a 1x1xC tensor.
type Tensor struct {
	H, W, C int
	Data    []int64
}

// New returns a zero tensor of the given shape.
func New(h, w, c int) *Tensor {
	if h < 1 || w < 1 || c < 1 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%d", h, w, c))
	}
	return &Tensor{H: h, W: w, C: c, Data: make([]int64, h*w*c)}
}

// NewVector returns a 1x1xN tensor wrapping the given values.
func NewVector(vals []int64) *Tensor {
	t := New(1, 1, len(vals))
	copy(t.Data, vals)
	return t
}

// idx returns the flat index of (y, x, c).
func (t *Tensor) idx(y, x, c int) int {
	return (y*t.W+x)*t.C + c
}

// At returns the value at (y, x, c); out-of-bounds reads return 0,
// implementing implicit zero padding.
func (t *Tensor) At(y, x, c int) int64 {
	if y < 0 || y >= t.H || x < 0 || x >= t.W || c < 0 || c >= t.C {
		return 0
	}
	return t.Data[t.idx(y, x, c)]
}

// Set stores v at (y, x, c) and panics on out-of-bounds writes.
func (t *Tensor) Set(y, x, c int, v int64) {
	if y < 0 || y >= t.H || x < 0 || x >= t.W || c < 0 || c >= t.C {
		panic(fmt.Sprintf("tensor: Set(%d,%d,%d) out of bounds %dx%dx%d", y, x, c, t.H, t.W, t.C))
	}
	t.Data[t.idx(y, x, c)] = v
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Flatten returns the data as a vector tensor (shares storage).
func (t *Tensor) Flatten() *Tensor {
	return &Tensor{H: 1, W: 1, C: len(t.Data), Data: t.Data}
}

// Kernel is a convolution filter bank: M filters of RxRxC weights.
type Kernel struct {
	M, R, C int
	Data    []int64 // [m][ky][kx][c]
}

// NewKernel returns a zero filter bank.
func NewKernel(m, r, c int) *Kernel {
	if m < 1 || r < 1 || c < 1 {
		panic(fmt.Sprintf("tensor: invalid kernel %dx%dx%d", m, r, c))
	}
	return &Kernel{M: m, R: r, C: c, Data: make([]int64, m*r*r*c)}
}

// At returns the weight of filter m at (ky, kx, c).
func (k *Kernel) At(m, ky, kx, c int) int64 {
	return k.Data[((m*k.R+ky)*k.R+kx)*k.C+c]
}

// Set stores a weight.
func (k *Kernel) Set(m, ky, kx, c int, v int64) {
	k.Data[((m*k.R+ky)*k.R+kx)*k.C+c] = v
}

// Filter returns filter m's weights as a flat slice in (ky, kx, c)
// order — the same order a PatchMatrix row presents the window values,
// so out[m] of a convolution is the plain dot product of the two.
// The slice aliases the kernel's backing store.
func (k *Kernel) Filter(m int) []int64 {
	n := k.R * k.R * k.C
	return k.Data[m*n : (m+1)*n : (m+1)*n]
}

// Conv2D computes a standard 2-D convolution with the given stride and
// zero padding, returning an ExMxE output (E per the usual formula).
// The input is lowered to an im2col patch matrix once and every filter
// reduces to dense dot products over its rows; the result is
// bit-identical to Conv2DReference.
func Conv2D(in *Tensor, k *Kernel, stride, pad int) (*Tensor, error) {
	if in.C != k.C {
		return nil, fmt.Errorf("tensor: input channels %d != kernel channels %d", in.C, k.C)
	}
	p, err := Lower(in, k.R, stride, pad)
	if err != nil {
		return nil, err
	}
	out := New(p.EH, p.EW, k.M)
	for m := 0; m < k.M; m++ {
		w := k.Filter(m)
		for i := 0; i < p.Rows; i++ {
			row := p.Row(i)
			var acc int64
			for j, v := range row {
				acc += v * w[j]
			}
			out.Data[i*k.M+m] = acc
		}
	}
	return out, nil
}

// Conv2DReference is the direct 6-deep loop convolution the lowered
// Conv2D replaced, kept as the oracle the im2col path (and the
// parallel qnn conv layer built on it) is property-tested against.
func Conv2DReference(in *Tensor, k *Kernel, stride, pad int) (*Tensor, error) {
	if in.C != k.C {
		return nil, fmt.Errorf("tensor: input channels %d != kernel channels %d", in.C, k.C)
	}
	if stride < 1 || pad < 0 {
		return nil, fmt.Errorf("tensor: invalid stride %d / pad %d", stride, pad)
	}
	eh := (in.H+2*pad-k.R)/stride + 1
	ew := (in.W+2*pad-k.R)/stride + 1
	if eh < 1 || ew < 1 {
		return nil, fmt.Errorf("tensor: kernel %d too large for input %dx%d with pad %d", k.R, in.H, in.W, pad)
	}
	out := New(eh, ew, k.M)
	for oy := 0; oy < eh; oy++ {
		for ox := 0; ox < ew; ox++ {
			for m := 0; m < k.M; m++ {
				var acc int64
				for ky := 0; ky < k.R; ky++ {
					for kx := 0; kx < k.R; kx++ {
						for c := 0; c < in.C; c++ {
							acc += in.At(oy*stride+ky-pad, ox*stride+kx-pad, c) * k.At(m, ky, kx, c)
						}
					}
				}
				out.Set(oy, ox, m, acc)
			}
		}
	}
	return out, nil
}

// MaxPool2D computes max pooling with a square window and equal stride.
func MaxPool2D(in *Tensor, window int) (*Tensor, error) {
	if window < 1 || in.H%window != 0 || in.W%window != 0 {
		return nil, fmt.Errorf("tensor: pool window %d does not tile %dx%d", window, in.H, in.W)
	}
	out := New(in.H/window, in.W/window, in.C)
	MaxPoolInto(out, in, window)
	return out, nil
}

// MaxPoolInto max-pools in into out, which must already have shape
// (in.H/window, in.W/window, in.C) with the window tiling in exactly —
// the allocation-free core of MaxPool2D, for callers that recycle
// output tensors. Every out element is overwritten.
func MaxPoolInto(out, in *Tensor, window int) {
	if window < 1 || in.H%window != 0 || in.W%window != 0 ||
		out.H != in.H/window || out.W != in.W/window || out.C != in.C {
		panic(fmt.Sprintf("tensor: MaxPoolInto window %d: %dx%dx%d -> %dx%dx%d",
			window, in.H, in.W, in.C, out.H, out.W, out.C))
	}
	for oy := 0; oy < out.H; oy++ {
		for ox := 0; ox < out.W; ox++ {
			for c := 0; c < in.C; c++ {
				best := in.At(oy*window, ox*window, c)
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						if v := in.At(oy*window+ky, ox*window+kx, c); v > best {
							best = v
						}
					}
				}
				out.Set(oy, ox, c, best)
			}
		}
	}
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(t *Tensor) int {
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}
