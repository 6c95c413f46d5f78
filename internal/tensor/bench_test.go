package tensor

import (
	"math/rand"
	"testing"
)

// benchConvCase is a LeNet-conv2-sized problem: 14x14x6 input, 16
// 5x5x6 filters, stride 1, no padding.
func benchConvCase() (*Tensor, *Kernel) {
	rng := rand.New(rand.NewSource(42))
	in := randTensor(rng, 14, 14, 6)
	k := randKernel(rng, 16, 5, 6)
	return in, k
}

func BenchmarkConv2DReference(b *testing.B) {
	in, k := benchConvCase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2DReference(in, k, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
