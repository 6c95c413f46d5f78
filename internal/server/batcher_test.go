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

	// gate, when set by hold, keeps the first pass running until it is
	// closed; held is closed once that pass has started.
	gate, held chan struct{}
}

func (e *echoRun) run(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error) {
	if e.calls.Add(1) == 1 && e.gate != nil {
		close(e.held)
		<-e.gate
	}
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

// hold submits a one-image request for network on a fresh batcher and
// keeps its pass running until the returned release is called, so the
// requests a test submits meanwhile collect behind it. release waits
// for the held request's reply. The held pass is the engine's first.
func (e *echoRun) hold(t *testing.T, b *microBatcher, network string) (release func()) {
	t.Helper()
	e.gate, e.held = make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), network, [][]int64{{-1}})
		errc <- err
	}()
	<-e.held
	return func() {
		close(e.gate)
		if err := <-errc; err != nil && !errors.Is(err, e.err) {
			t.Errorf("held request: %v", err)
		}
	}
}

// pendingImages is the test's window into a batch under collection.
func (b *microBatcher) pendingImages(network string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if l := b.lanes[network]; l != nil {
		return l.images
	}
	return 0
}

// TestBatcherIdleRunsAtOnce proves a lone request for an idle network
// dispatches at once: nothing holds it for company, however large the
// batch size.
func TestBatcherIdleRunsAtOnce(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100)
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, n, err := b.Submit(ctx, "net", [][]int64{{7}})
	if err != nil {
		t.Fatalf("lone request: %v (it waited instead of running)", err)
	}
	if n != 1 || len(res) != 1 || res[0].Outputs[0] != 7 {
		t.Errorf("got %+v batched %d, want its own image in a pass of 1", res, n)
	}
	if got := e.calls.Load(); got != 1 {
		t.Errorf("engine passes = %d, want 1", got)
	}
}

// TestBatcherFlushOnFull proves a batch collecting behind a running
// pass dispatches the moment pending images reach batchSize, without
// waiting for that pass to end, that all its requests ride one engine
// pass, and that results fan out in arrival order.
func TestBatcherFlushOnFull(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 4)
	defer b.Close()
	release := e.hold(t, b, "net")
	defer release()

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
	if got := e.calls.Load(); got != 2 {
		t.Errorf("engine passes = %d, want 2 (the held one and the full batch)", got)
	}
}

// TestBatcherArrivalsRideNextPass proves requests that arrive while a
// pass runs collect into one batch, which the pass dispatches the
// moment it ends, with results in arrival order.
func TestBatcherArrivalsRideNextPass(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100)
	defer b.Close()
	release := e.hold(t, b, "net")

	type reply struct {
		idx     int
		results []pixel.InferResult
		batched int
		err     error
	}
	replies := make(chan reply, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			res, n, err := b.Submit(context.Background(), "net", [][]int64{{int64(20 + i)}})
			replies <- reply{i, res, n, err}
		}()
		waitFor(t, fmt.Sprintf("request %d pending", i), func() bool {
			return b.pendingImages("net") == i+1
		})
	}
	if got := e.calls.Load(); got != 1 {
		t.Fatalf("engine passes before release = %d, want 1 (arrivals wait for the running pass)", got)
	}
	release()

	for range [3]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatalf("request %d: %v", r.idx, r.err)
		}
		if r.batched != 3 {
			t.Errorf("request %d batched = %d, want 3", r.idx, r.batched)
		}
		if len(r.results) != 1 || r.results[0].Outputs[0] != int64(20+r.idx) || r.results[0].ArgMax != r.idx {
			t.Errorf("request %d got %+v, want its own image at position %d", r.idx, r.results, r.idx)
		}
	}
	if got := e.calls.Load(); got != 2 {
		t.Errorf("engine passes = %d, want 2 (the held one and the collected batch)", got)
	}
}

// TestBatcherFullBatchHoldsNoOneBack proves a full batch runs outside
// its network's pass slot: a request that arrives while it runs
// dispatches at once instead of waiting behind it.
func TestBatcherFullBatchHoldsNoOneBack(t *testing.T) {
	e := &echoRun{gate: make(chan struct{}), held: make(chan struct{})}
	b := newMicroBatcher(e.run, 2)
	defer b.Close()

	bulk := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), "net", [][]int64{{1}, {2}})
		bulk <- err
	}()
	<-e.held
	defer func() {
		close(e.gate)
		if err := <-bulk; err != nil {
			t.Errorf("bulk request: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, n, err := b.Submit(ctx, "net", [][]int64{{3}})
	if err != nil {
		t.Fatalf("request behind a full batch: %v (it waited instead of running)", err)
	}
	if n != 1 || res[0].Outputs[0] != 3 {
		t.Errorf("got %+v batched %d, want its own image in a pass of 1", res, n)
	}
}

// TestBatcherCancelRemovesOnlyThatRequest proves cancelling one
// pending request drops its images from the batch without disturbing
// its neighbours, who still execute together.
func TestBatcherCancelRemovesOnlyThatRequest(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 3)
	defer b.Close()
	release := e.hold(t, b, "net")
	defer release()

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
	if got := e.calls.Load(); got != 2 {
		t.Errorf("engine passes = %d, want 2 (the held one and the full batch)", got)
	}
	for _, img := range e.images.Load().([][]int64) {
		if img[0] == 99 {
			t.Error("cancelled request's image reached the engine pass")
		}
	}
}

// TestBatcherCancelledWaiterNeverRuns proves a request cancelled while
// it waits behind a running pass is left out of the pass that follows.
func TestBatcherCancelledWaiterNeverRuns(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100)
	defer b.Close()
	release := e.hold(t, b, "net")

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctxA, "net", [][]int64{{99}})
		errA <- err
	}()
	waitFor(t, "request A pending", func() bool { return b.pendingImages("net") == 1 })
	got := make(chan int, 1)
	go func() {
		_, n, err := b.Submit(context.Background(), "net", [][]int64{{1}})
		if err != nil {
			t.Error(err)
		}
		got <- n
	}()
	waitFor(t, "request B pending", func() bool { return b.pendingImages("net") == 2 })
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request err = %v, want context.Canceled", err)
	}
	release()

	if n := <-got; n != 1 {
		t.Errorf("batched = %d, want 1 (B alone)", n)
	}
	if got := e.calls.Load(); got != 2 {
		t.Errorf("engine passes = %d, want 2", got)
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
	b := newMicroBatcher(e.run, 3)
	release := e.hold(t, b, "net")

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
	release()
	b.Close() // returns once the held pass has looked for a next batch
	if got := e.calls.Load(); got != 1 {
		t.Errorf("engine passes = %d, want 1 (the emptied batch never ran)", got)
	}
}

// TestBatcherCloseDrainsPartials proves Close runs a partial batch
// queued behind a running pass (waiters get results, not errors),
// returns only once it has, and rejects new submits.
func TestBatcherCloseDrainsPartials(t *testing.T) {
	e := &echoRun{}
	b := newMicroBatcher(e.run, 100)
	release := e.hold(t, b, "net")

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

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to start", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	_, _, err := b.Submit(context.Background(), "net", [][]int64{{1}})
	var he *httpx.Error
	if !errors.As(err, &he) || he.Status != 503 {
		t.Fatalf("post-Close Submit err = %v, want 503 httpx.Error", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a pass was still running")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-closed
	if got := e.calls.Load(); got != 2 {
		t.Errorf("engine passes when Close returned = %d, want 2 (the queued batch ran)", got)
	}
	for range [2]int{} {
		r := <-replies
		if r.err != nil {
			t.Fatalf("drained request failed: %v", r.err)
		}
		if r.batched != 2 {
			t.Errorf("batched = %d, want 2", r.batched)
		}
	}
}

// TestBatcherErrorFansOut proves a failed pass reports the same error
// to every request that rode it.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	e := &echoRun{err: boom}
	b := newMicroBatcher(e.run, 2)
	defer b.Close()
	release := e.hold(t, b, "net")
	defer release()

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
