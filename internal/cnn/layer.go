// Package cnn describes the six convolutional networks the paper
// evaluates (VGG16, AlexNet, ZFNet, ResNet-34, LeNet, GoogLeNet) layer by
// layer, and computes the per-layer operation counts of Section IV-B:
//
//	E      = (H - R + U)/U          (Eq. 11, padded input)
//	N_MVM  = E^2 * M * C
//	N_mul  = R^2 * N_MVM
//	N_add  = N_mul + E^2 * M
//	N_act  = E^2 * M
//
// Two counting modes are provided. ModePaper replicates the paper's
// Table I exactly, including its fully-connected-layer convention
// (N_mul = In^2 rather than In*Out — visible in the printed FC1/FC3
// rows); ModeExact uses the standard In*Out accounting. The evaluation
// harness uses ModePaper so every downstream figure is consistent with
// the paper's own workload numbers.
package cnn

import "fmt"

// LayerType discriminates convolutional from fully-connected layers.
// Pooling layers carry no MACs and are not modeled, matching the paper.
type LayerType int

const (
	// Conv is a 2-D convolution layer.
	Conv LayerType = iota
	// FC is a fully-connected layer.
	FC
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// CountMode selects the operation-count convention.
type CountMode int

const (
	// ModePaper replicates the paper's Table I formulas verbatim,
	// including the FC convention N_mul = In^2.
	ModePaper CountMode = iota
	// ModeExact uses the standard FC accounting N_mul = In*Out.
	ModeExact
)

// Layer is one parameterized network layer.
type Layer struct {
	// Name is the paper-style layer label ("Conv3", "FC1", ...).
	Name string
	Type LayerType

	// Convolution parameters (Type == Conv). H and W are the unpadded
	// input feature size, C the input channels, Pad the per-side
	// padding, R the square kernel size, U the stride, M the filter
	// count.
	H, W, C int
	Pad     int
	R, U    int
	M       int

	// Fully-connected parameters (Type == FC).
	In, Out int
}

// Validate reports an error for inconsistent layer parameters.
func (l Layer) Validate() error {
	switch l.Type {
	case Conv:
		switch {
		case l.H < 1 || l.W < 1 || l.C < 1:
			return fmt.Errorf("cnn: %s: non-positive input shape [%d,%d,%d]", l.Name, l.H, l.W, l.C)
		case l.R < 1 || l.U < 1 || l.M < 1:
			return fmt.Errorf("cnn: %s: non-positive kernel/stride/filters", l.Name)
		case l.Pad < 0:
			return fmt.Errorf("cnn: %s: negative padding", l.Name)
		case l.H+2*l.Pad < l.R || l.W+2*l.Pad < l.R:
			return fmt.Errorf("cnn: %s: kernel %d larger than padded input %d", l.Name, l.R, l.H+2*l.Pad)
		}
	case FC:
		if l.In < 1 || l.Out < 1 {
			return fmt.Errorf("cnn: %s: non-positive FC dims %dx%d", l.Name, l.In, l.Out)
		}
	default:
		return fmt.Errorf("cnn: %s: unknown layer type %d", l.Name, int(l.Type))
	}
	return nil
}

// OutputSize returns the output feature size E for a convolution layer
// via the paper's Eq. 11 applied to the padded input:
// E = (H + 2*Pad - R + U) / U.
func (l Layer) OutputSize() int {
	if l.Type != Conv {
		return 1
	}
	return (l.H + 2*l.Pad - l.R + l.U) / l.U
}

// InputShape returns the padded input shape string the paper's Table I
// style uses, e.g. "[226,226,64]".
func (l Layer) InputShape() string {
	if l.Type == FC {
		return fmt.Sprintf("[%d]", l.In)
	}
	return fmt.Sprintf("[%d,%d,%d]", l.H+2*l.Pad, l.W+2*l.Pad, l.C)
}

// Counts holds absolute operation counts for one layer or network (not
// millions; render with /1e6 for the paper's units).
type Counts struct {
	MVM float64 // matrix-vector multiplications
	Mul float64 // scalar multiplications
	Add float64 // scalar additions
	Act float64 // activation-function evaluations
}

// Plus returns the element-wise sum of two Counts.
func (c Counts) Plus(o Counts) Counts {
	return Counts{
		MVM: c.MVM + o.MVM,
		Mul: c.Mul + o.Mul,
		Add: c.Add + o.Add,
		Act: c.Act + o.Act,
	}
}

// Counts returns the layer's operation counts under the given mode. It
// takes a pointer, so pricing a layer does not copy it.
func (l *Layer) Counts(mode CountMode) Counts {
	switch l.Type {
	case Conv:
		e := float64(l.OutputSize())
		mvm := e * e * float64(l.M) * float64(l.C)
		mul := float64(l.R*l.R) * mvm
		act := e * e * float64(l.M)
		return Counts{MVM: mvm, Mul: mul, Add: mul + act, Act: act}
	case FC:
		in := float64(l.In)
		out := float64(l.Out)
		if mode == ModePaper {
			// The paper's Table I FC rows follow N_mul = In^2,
			// N_add = 2*In^2, N_act = In^2, N_MVM = 1.
			return Counts{MVM: 1, Mul: in * in, Add: 2 * in * in, Act: in * in}
		}
		return Counts{MVM: 1, Mul: in * out, Add: in*out + out, Act: out}
	default:
		return Counts{}
	}
}

// Network is a named sequence of layers.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate validates every layer.
func (n Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("cnn: network without a name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("cnn: %s: no layers", n.Name)
	}
	for _, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalCounts sums the operation counts across all layers.
func (n Network) TotalCounts(mode CountMode) Counts {
	var total Counts
	for i := range n.Layers {
		total = total.Plus(n.Layers[i].Counts(mode))
	}
	return total
}
