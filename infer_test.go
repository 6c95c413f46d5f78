package pixel

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pixel/internal/montecarlo"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

// TestInferMatchesSequentialReference pins the facade to the oracle: a
// batched Infer equals per-image sequential qnn.Run on the reference
// dotter, image for image, at several worker counts.
func TestInferMatchesSequentialReference(t *testing.T) {
	net, err := montecarlo.BuildNetwork("tiny")
	if err != nil {
		t.Fatal(err)
	}
	shape, err := InferNetworkShape("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if shape.H != net.Input.H || shape.W != net.Input.W || shape.C != net.Input.C {
		t.Fatalf("shape %+v != input %dx%dx%d", shape, net.Input.H, net.Input.W, net.Input.C)
	}

	rng := rand.New(rand.NewSource(31))
	const batch = 5
	images := make([][]int64, batch)
	for b := range images {
		img := make([]int64, shape.H*shape.W*shape.C)
		for i := range img {
			img[i] = rng.Int63n(shape.MaxValue + 1)
		}
		images[b] = img
	}

	for _, workers := range []int{1, 0} {
		got, err := InferContext(context.Background(), InferSpec{
			Network: "tiny", Images: images, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != batch {
			t.Fatalf("got %d results, want %d", len(got), batch)
		}
		for b, img := range images {
			in := tensor.New(shape.H, shape.W, shape.C)
			copy(in.Data, img)
			want, err := net.Model.Run(in, qnn.ReferenceDotter{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got[b].Outputs) != want.Len() {
				t.Fatalf("image %d: %d outputs, want %d", b, len(got[b].Outputs), want.Len())
			}
			for i, v := range got[b].Outputs {
				if v != want.Data[i] {
					t.Fatalf("workers %d image %d output %d = %d, want %d", workers, b, i, v, want.Data[i])
				}
			}
			if got[b].ArgMax != tensor.ArgMax(want) {
				t.Fatalf("image %d argmax %d, want %d", b, got[b].ArgMax, tensor.ArgMax(want))
			}
		}
	}
}

// TestInferSpecErrors covers the facade validation sentinels.
func TestInferSpecErrors(t *testing.T) {
	shape, err := InferNetworkShape("tiny")
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int64, shape.H*shape.W*shape.C)

	if _, err := InferContext(context.Background(), InferSpec{Network: "nope", Images: [][]int64{good}}); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("unknown network: %v", err)
	}
	if _, err := InferNetworkShape("nope"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("unknown network shape: %v", err)
	}
	if _, err := InferContext(context.Background(), InferSpec{Network: "tiny"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := InferContext(context.Background(), InferSpec{Network: "tiny", Images: [][]int64{good[:3]}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("short image: %v", err)
	}
	bad := make([]int64, len(good))
	bad[2] = shape.MaxValue + 1
	if _, err := InferContext(context.Background(), InferSpec{Network: "tiny", Images: [][]int64{bad}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("over-range value: %v", err)
	}
	bad[2] = -1
	if _, err := InferContext(context.Background(), InferSpec{Network: "tiny", Images: [][]int64{bad}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative value: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := InferContext(ctx, InferSpec{Network: "tiny", Images: [][]int64{good}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
}
