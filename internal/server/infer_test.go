package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pixel"
	"pixel/api"
)

// inferServer builds a server with infer (the real pixel facade, or a
// wrapper of it) behind /v1/infer.
func inferServer(t *testing.T, batchSize int, infer InferEvaluator) *httptest.Server {
	t.Helper()
	srv := New(Config{
		Engine:    pixel.NewEngine(pixel.EngineOptions{}),
		Infer:     infer,
		BatchSize: batchSize,
		Logger:    discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// tinyImages builds deterministic in-range images for the "tiny" demo
// network (8x8x1, 4-bit activations).
func tinyImages(n int) [][]int64 {
	shape, err := pixel.InferNetworkShape("tiny")
	if err != nil {
		panic(err)
	}
	imgs := make([][]int64, n)
	for b := range imgs {
		img := make([]int64, shape.H*shape.W*shape.C)
		for i := range img {
			img[i] = int64((i*7 + b*13) % int(shape.MaxValue+1))
		}
		imgs[b] = img
	}
	return imgs
}

// TestInferEndToEnd drives POST /v1/infer through the api.Client and
// proves a multi-image request returns exactly what the same images
// produce one at a time — batching is a serving optimization, not a
// semantic change.
func TestInferEndToEnd(t *testing.T) {
	ts := inferServer(t, 8, PixelInfer{})
	c := api.NewClient(ts.URL, nil)
	ctx := context.Background()
	imgs := tinyImages(4)

	batch, err := c.Infer(ctx, api.InferRequest{Network: "tiny", Images: imgs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(batch.Results))
	}
	if batch.Batched < 4 {
		t.Errorf("batched = %d, want >= 4", batch.Batched)
	}
	for i, img := range imgs {
		single, err := c.Infer(ctx, api.InferRequest{Network: "tiny", Images: [][]int64{img}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Results[0], batch.Results[i]) {
			t.Errorf("image %d: single = %+v, batched = %+v", i, single.Results[0], batch.Results[i])
		}
	}
}

// heldInfer is the pixel facade with its first pass held open until
// gate is closed; held is closed once that pass has started.
type heldInfer struct {
	PixelInfer
	calls      atomic.Int64
	gate, held chan struct{}
}

func (h *heldInfer) InferContext(ctx context.Context, spec pixel.InferSpec) ([]pixel.InferResult, error) {
	if h.calls.Add(1) == 1 {
		close(h.held)
		<-h.gate
	}
	return h.PixelInfer.InferContext(ctx, spec)
}

// TestInferMicroBatchingOverHTTP proves two concurrent single-image
// requests that arrive while a pass runs coalesce into one serving
// batch.
func TestInferMicroBatchingOverHTTP(t *testing.T) {
	h := &heldInfer{gate: make(chan struct{}), held: make(chan struct{})}
	ts := inferServer(t, 2, h)
	c := api.NewClient(ts.URL, nil)
	imgs := tinyImages(2)

	heldErr := make(chan error, 1)
	go func() {
		_, err := c.Infer(context.Background(), api.InferRequest{Network: "tiny", Images: imgs[:1]})
		heldErr <- err
	}()
	<-h.held
	defer func() {
		close(h.gate)
		if err := <-heldErr; err != nil {
			t.Errorf("held request: %v", err)
		}
	}()

	var wg sync.WaitGroup
	replies := make([]api.InferResponse, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.Infer(context.Background(),
				api.InferRequest{Network: "tiny", Images: imgs[i : i+1]})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if replies[i].Batched != 2 {
			t.Errorf("request %d batched = %d, want 2 (coalesced pass)", i, replies[i].Batched)
		}
	}
}

// TestInferValidation proves malformed requests fail with their own
// documented envelope before joining any batch.
func TestInferValidation(t *testing.T) {
	ts := inferServer(t, 8, PixelInfer{})
	c := api.NewClient(ts.URL, nil)
	ctx := context.Background()
	good := tinyImages(1)[0]

	cases := []struct {
		name   string
		req    api.InferRequest
		status int
		code   string
	}{
		{"unknown network", api.InferRequest{Network: "nope", Images: [][]int64{good}}, 404, "unknown_network"},
		{"no images", api.InferRequest{Network: "tiny"}, 400, "bad_request"},
		{"short image", api.InferRequest{Network: "tiny", Images: [][]int64{{1, 2, 3}}}, 400, "bad_request"},
		{"value out of range", api.InferRequest{Network: "tiny", Images: [][]int64{append(append([]int64{}, good...)[:len(good)-1], 1<<40)}}, 400, "bad_request"},
		{"negative value", api.InferRequest{Network: "tiny", Images: [][]int64{append(append([]int64{}, good...)[:len(good)-1], -1)}}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Infer(ctx, tc.req)
			var he *api.HTTPError
			if !errors.As(err, &he) || he.Status != tc.status || he.Code != tc.code {
				t.Fatalf("err = %v, want %d/%s", err, tc.status, tc.code)
			}
		})
	}
}
