package montecarlo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pixel/internal/cnn"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

// demoSeed fixes the weight/input draw of every named network, so any
// process (CLI, server, test) that asks for "lenet" perturbs the very
// same network the qnn golden test pins.
const demoSeed = 23

// Network is a ready-to-perturb model: the net, its stimulus, the
// bit-serial engine geometry that fits it, and the layer-count model
// the arch cost accounting prices protection overhead against.
type Network struct {
	Model *qnn.Model
	Input *tensor.Tensor
	Bits  int
	Terms int
	Cost  cnn.Network
}

// builders maps lower-case network names to constructors.
var builders = map[string]func() Network{
	"lenet": func() Network {
		m, in := qnn.DemoLeNet(rand.New(rand.NewSource(demoSeed)))
		return Network{Model: m, Input: in, Bits: qnn.DemoLeNetBits, Terms: qnn.DemoLeNetTerms, Cost: cnn.LeNet()}
	},
	"tiny": buildTiny,
}

// buildTiny is a two-layer toy net small enough for high-trial-count
// tests and smoke runs (~1% of LeNet's MAC work).
func buildTiny() Network {
	rng := rand.New(rand.NewSource(demoSeed))
	k := tensor.NewKernel(4, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(16)
	}
	fc := make([]int64, 8*8*4*10)
	for i := range fc {
		fc[i] = rng.Int63n(16)
	}
	m := &qnn.Model{
		Label:          "tiny-8",
		ActivationBits: 4,
		Layers: []qnn.Layer{
			&qnn.Conv{Label: "conv", Kernel: k, Stride: 1, Pad: 1}, // 8x8x1 -> 8x8x4
			&qnn.Requant{Label: "rq", Shift: 6, Max: 15},
			&qnn.Flatten{Label: "flat"},
			&qnn.FullyConnected{Label: "fc", Weights: fc, Out: 10},
		},
	}
	in := tensor.New(8, 8, 1)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(16)
	}
	cost := cnn.Network{
		Name: "tiny",
		Layers: []cnn.Layer{
			{Name: "conv", Type: cnn.Conv, H: 8, W: 8, C: 1, Pad: 1, R: 3, U: 1, M: 4},
			{Name: "fc", Type: cnn.FC, In: 256, Out: 10},
		},
	}
	return Network{Model: m, Input: in, Bits: 4, Terms: 256, Cost: cost}
}

// Networks lists the known network names, sorted.
func Networks() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildNetwork returns the named demo network (case-insensitive).
func BuildNetwork(name string) (Network, error) {
	b, ok := builders[strings.ToLower(name)]
	if !ok {
		return Network{}, fmt.Errorf("montecarlo: unknown network %q (have %s)",
			name, strings.Join(Networks(), ", "))
	}
	return b(), nil
}
