package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pixel"
	"pixel/internal/httpx"
)

// echoRun is a controllable batch backend: it counts passes, records
// the images of the last pass, and returns one result per image whose
// Outputs echo the image and whose ArgMax is the image's position in
// the serving batch — so tests can check both slicing and order.
type echoRun struct {
	calls  atomic.Int64
	images atomic.Value // [][]int64 of the last pass
	err    error
}

func (e *echoRun) run(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error) {
	e.calls.Add(1)
	cp := make([][]int64, len(images))
	for i, img := range images {
		cp[i] = append([]int64(nil), img...)
	}
	e.images.Store(cp)
	if e.err != nil {
		return nil, e.err
	}
	out := make([]pixel.InferResult, len(images))
	for i, img := range images {
		out[i] = pixel.InferResult{Outputs: append([]int64(nil), img...), ArgMax: i}
	}
	return out, nil
}

// pendingImages is the test's window into a batch under collection.
func (b *microBatcher) pendingImages(network string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pb := b.pending[network]; pb != nil {
		return pb.images
	}
	return 0
}

// TestBatcherFlushOnFull proves a batch executes the moment pending
// images reach batchSize (the window never expires here), that all
// requests ride one engine pass, and that results fan out in arrival
// order.
func TestBatcherFlushOnFull(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 4, time.Hour)
	defer b.Close()

	type reply struct {
		idx     int
		results []pixel.InferResult
		batched int
		err     error
	}
	replies := make(chan reply, 4)
	// Submit one image at a time, waiting until each lands in the
	// pending batch, so arrival order is deterministic.
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			res, n, err := b.Submit(context.Background(), "net", [][]int64{{int64(10 + i)}})
			replies <- reply{i, res, n, err}
		}()
		if i < 3 {
			waitFor(t, fmt.Sprintf("request %d pending", i), func() bool {
				return b.pendingImages("net") == i+1
			})
		}
	}

	for range [4]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatalf("request %d: %v", r.idx, r.err)
		}
		if r.batched != 4 {
			t.Errorf("request %d batched = %d, want 4", r.idx, r.batched)
		}
		if len(r.results) != 1 || r.results[0].Outputs[0] != int64(10+r.idx) {
			t.Errorf("request %d got %+v, want its own image back", r.idx, r.results)
		}
		if r.results[0].ArgMax != r.idx {
			t.Errorf("request %d sat at batch position %d, want %d (arrival order)",
				r.idx, r.results[0].ArgMax, r.idx)
		}
	}
	if got := e.calls.Load(); got != 1 {
		t.Errorf("engine passes = %d, want 1", got)
	}
}

// TestBatcherFlushOnTimer proves a partial batch executes when its
// window elapses without filling.
func TestBatcherFlushOnTimer(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100, 20*time.Millisecond)
	defer b.Close()

	type reply struct {
		results []pixel.InferResult
		batched int
		err     error
	}
	replies := make(chan reply, 2)
	go func() {
		res, n, err := b.Submit(context.Background(), "net", [][]int64{{1}, {2}})
		replies <- reply{res, n, err}
	}()
	waitFor(t, "first request pending", func() bool { return b.pendingImages("net") == 2 })
	go func() {
		res, n, err := b.Submit(context.Background(), "net", [][]int64{{3}})
		replies <- reply{res, n, err}
	}()

	for range [2]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.batched != 3 {
			t.Errorf("batched = %d, want 3 (timer flushed the partial batch)", r.batched)
		}
	}
	if got := e.calls.Load(); got != 1 {
		t.Errorf("engine passes = %d, want 1", got)
	}
}

// TestBatcherCancelRemovesOnlyThatRequest proves cancelling one
// pending request drops its images from the batch without disturbing
// its neighbours, who still execute together.
func TestBatcherCancelRemovesOnlyThatRequest(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 3, time.Hour)
	defer b.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctxA, "net", [][]int64{{99}}) // the marker that must vanish
		errA <- err
	}()
	waitFor(t, "request A pending", func() bool { return b.pendingImages("net") == 1 })

	type reply struct {
		results []pixel.InferResult
		batched int
		err     error
	}
	replies := make(chan reply, 2)
	go func() {
		res, n, err := b.Submit(context.Background(), "net", [][]int64{{1}})
		replies <- reply{res, n, err}
	}()
	waitFor(t, "request B pending", func() bool { return b.pendingImages("net") == 2 })

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request err = %v, want context.Canceled", err)
	}
	waitFor(t, "request A removed", func() bool { return b.pendingImages("net") == 1 })

	// Two more images fill the 3-slot batch and trigger the flush.
	go func() {
		res, n, err := b.Submit(context.Background(), "net", [][]int64{{2}, {3}})
		replies <- reply{res, n, err}
	}()

	for range [2]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.batched != 3 {
			t.Errorf("batched = %d, want 3 (B's one + C's two)", r.batched)
		}
	}
	if got := e.calls.Load(); got != 1 {
		t.Errorf("engine passes = %d, want 1", got)
	}
	for _, img := range e.images.Load().([][]int64) {
		if img[0] == 99 {
			t.Error("cancelled request's image reached the engine pass")
		}
	}
}

// TestBatcherCancelLastDropsBatch proves an all-cancelled batch never
// reaches the engine.
func TestBatcherCancelLastDropsBatch(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 3, 20*time.Millisecond)
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, "net", [][]int64{{1}})
		errc <- err
	}()
	waitFor(t, "request pending", func() bool { return b.pendingImages("net") == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	time.Sleep(50 * time.Millisecond) // past the window
	if got := e.calls.Load(); got != 0 {
		t.Errorf("engine passes = %d, want 0 (batch emptied before its window)", got)
	}
}

// TestBatcherCloseDrainsPartials proves Close executes pending partial
// batches (waiters get results, not errors) and rejects new submits.
func TestBatcherCloseDrainsPartials(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100, time.Hour)

	type reply struct {
		batched int
		err     error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			_, n, err := b.Submit(context.Background(), "net", [][]int64{{int64(i)}})
			replies <- reply{n, err}
		}()
	}
	waitFor(t, "both requests pending", func() bool { return b.pendingImages("net") == 2 })

	b.Close()
	for range [2]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatalf("drained request failed: %v", r.err)
		}
		if r.batched != 2 {
			t.Errorf("batched = %d, want 2", r.batched)
		}
	}

	_, _, err := b.Submit(context.Background(), "net", [][]int64{{1}})
	var he *httpx.Error
	if !errors.As(err, &he) || he.Status != 503 {
		t.Fatalf("post-Close Submit err = %v, want 503 httpx.Error", err)
	}
}

// TestBatcherErrorFansOut proves a failed pass reports the same error
// to every request that rode it.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	e := &echoRun{err: boom}
	b := newMicroBatcher(e.run, 2, time.Hour)
	defer b.Close()

	errs := make(chan error, 2)
	go func() {
		_, _, err := b.Submit(context.Background(), "net", [][]int64{{1}})
		errs <- err
	}()
	waitFor(t, "first request pending", func() bool { return b.pendingImages("net") == 1 })
	go func() {
		_, _, err := b.Submit(context.Background(), "net", [][]int64{{2}})
		errs <- err
	}()

	for range [2]int{} {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	}
}
