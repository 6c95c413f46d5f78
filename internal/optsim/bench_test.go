package optsim

import (
	"testing"

	"pixel/internal/photonics"
)

func BenchmarkCombine(b *testing.B) {
	x := NewOOK([]int{1, 0, 1, 1, 0, 1, 0, 1}, 1e-3, slot, 0)
	y := NewOOK([]int{0, 1, 1, 0, 1, 1, 1, 0}, 1e-3, slot, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(x, y, slot/4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMZIAccumulate8(b *testing.B) {
	inputs := mziInputs(173, 201, 8)
	opts := defaultMZIOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MZIAccumulate(inputs, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuitOOChain(b *testing.B) {
	const bits = 8
	params := photonics.DefaultMZIParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inputs := mziInputs(uint64(i)&255, uint64(i>>8)&255, bits)
		c := NewCircuit()
		var accNode int
		for k, in := range inputs {
			src := c.Add(&SourceNode{Label: "lane", Signal: in})
			if k == 0 {
				accNode = src
				continue
			}
			dly := c.Add(&DelayNode{Label: "slot", Slots: 1})
			if err := c.Connect(accNode, 0, dly, 0); err != nil {
				b.Fatal(err)
			}
			mzi := c.Add(&CombinerNode{Label: "acc", Params: params})
			if err := c.Connect(dly, 0, mzi, 0); err != nil {
				b.Fatal(err)
			}
			if err := c.Connect(src, 0, mzi, 1); err != nil {
				b.Fatal(err)
			}
			accNode = mzi
		}
		if _, err := c.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}
