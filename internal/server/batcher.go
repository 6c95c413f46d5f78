package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"pixel"
	"pixel/internal/httpx"
)

// InferEvaluator is the optional engine surface behind POST /v1/infer:
// batched quantized inference over the demo networks, plus the shape
// hook the handler validates each request against before it joins a
// batch (so one malformed request cannot poison a shared pass).
// PixelInfer (the pixel facade) implements it; tests substitute
// controllable fakes. A server without one answers the route with 501.
type InferEvaluator interface {
	InferContext(ctx context.Context, spec pixel.InferSpec) ([]pixel.InferResult, error)
	NetworkShape(name string) (pixel.InferShape, error)
}

// PixelInfer is the default InferEvaluator, backed by the pixel
// facade's cached per-network models and batched bit-serial engines.
type PixelInfer struct{}

// InferContext implements InferEvaluator.
func (PixelInfer) InferContext(ctx context.Context, spec pixel.InferSpec) ([]pixel.InferResult, error) {
	return pixel.InferContext(ctx, spec)
}

// NetworkShape implements InferEvaluator.
func (PixelInfer) NetworkShape(name string) (pixel.InferShape, error) {
	return pixel.InferNetworkShape(name)
}

// Defaults for the micro-batching knobs (also the pixeld flag
// defaults). The window is sized well under the cached-model pass
// latency it amortizes: waiting 2ms to fill a batch that then runs
// word-parallel beats running each image alone.
const (
	DefaultBatchSize   = 8
	DefaultBatchWindow = 2 * time.Millisecond
)

// inferReply fans one request's slice of a batched pass back to its
// waiting handler.
type inferReply struct {
	results []pixel.InferResult
	batched int // images in the serving batch this request rode in
	err     error
}

// inferJob is one request waiting in a pending batch.
type inferJob struct {
	images [][]int64
	done   chan inferReply // buffered; execute never blocks on it
}

// pendingBatch collects same-network jobs until the batch fills or its
// window timer fires.
type pendingBatch struct {
	network string
	jobs    []*inferJob // arrival order; results fan out in this order
	images  int
	timer   *time.Timer
}

// microBatcher turns concurrent single-request /v1/infer traffic into
// batched engine passes. The first request for a network opens a
// collection window; the batch executes as one engine call when its
// pending image count reaches batchSize or the window elapses,
// whichever comes first, and per-request result slices fan back out in
// arrival order. Each network batches independently (different
// networks cannot share a pass).
type microBatcher struct {
	run       func(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error)
	batchSize int
	window    time.Duration

	mu      sync.Mutex
	pending map[string]*pendingBatch
	closed  bool
	wg      sync.WaitGroup // executing batches, for Close to drain
}

func newMicroBatcher(run func(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error), batchSize int, window time.Duration) *microBatcher {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	if window <= 0 {
		window = DefaultBatchWindow
	}
	return &microBatcher{
		run:       run,
		batchSize: batchSize,
		window:    window,
		pending:   map[string]*pendingBatch{},
	}
}

// Submit enqueues one request's images and blocks until its slice of
// the batched results is ready or ctx is cancelled. Cancellation
// removes only this request from its pending batch; jobs already
// handed to an executing pass are unaffected (the caller just stops
// waiting — the buffered reply is dropped).
func (b *microBatcher) Submit(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, int, error) {
	job := &inferJob{images: images, done: make(chan inferReply, 1)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, 0, &httpx.Error{
			Status: http.StatusServiceUnavailable,
			Code:   "shutting_down",
			Msg:    "server is draining",
		}
	}
	pb := b.pending[network]
	if pb == nil {
		pb = &pendingBatch{network: network}
		b.pending[network] = pb
		pb.timer = time.AfterFunc(b.window, func() { b.flush(pb) })
	}
	pb.jobs = append(pb.jobs, job)
	pb.images += len(images)
	if pb.images >= b.batchSize {
		b.detachLocked(pb)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.execute(pb)
		}()
	}
	b.mu.Unlock()

	select {
	case rep := <-job.done:
		return rep.results, rep.batched, rep.err
	case <-ctx.Done():
		b.remove(network, job)
		return nil, 0, ctx.Err()
	}
}

// flush is the window-timer path: execute the batch unless a size
// flush or Close already detached it.
func (b *microBatcher) flush(pb *pendingBatch) {
	b.mu.Lock()
	if b.pending[pb.network] != pb {
		b.mu.Unlock()
		return
	}
	b.detachLocked(pb)
	b.wg.Add(1)
	b.mu.Unlock()
	defer b.wg.Done()
	b.execute(pb)
}

// detachLocked removes pb from the pending map (if still there) and
// stops its timer; the caller owns pb exclusively afterwards.
func (b *microBatcher) detachLocked(pb *pendingBatch) {
	if b.pending[pb.network] == pb {
		delete(b.pending, pb.network)
	}
	pb.timer.Stop()
}

// remove drops one cancelled job from its pending batch. If the batch
// is already executing there is nothing to do; if the job was its last
// occupant the batch is detached without running.
func (b *microBatcher) remove(network string, job *inferJob) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pb := b.pending[network]
	if pb == nil {
		return
	}
	for i, j := range pb.jobs {
		if j == job {
			pb.jobs = append(pb.jobs[:i], pb.jobs[i+1:]...)
			pb.images -= len(job.images)
			break
		}
	}
	if len(pb.jobs) == 0 {
		b.detachLocked(pb)
	}
}

// execute runs one detached batch through a single engine pass and
// fans each job's result slice back in arrival order. On error every
// waiting job receives the same failure.
func (b *microBatcher) execute(pb *pendingBatch) {
	if len(pb.jobs) == 0 {
		return
	}
	all := make([][]int64, 0, pb.images)
	for _, j := range pb.jobs {
		all = append(all, j.images...)
	}
	results, err := b.run(context.Background(), pb.network, all)
	off := 0
	for _, j := range pb.jobs {
		n := len(j.images)
		if err != nil {
			j.done <- inferReply{err: err}
		} else {
			j.done <- inferReply{results: results[off : off+n], batched: len(all)}
		}
		off += n
	}
}

// Close stops accepting new work, flushes every pending partial batch,
// and waits for all executing batches to fan out. Jobs still waiting
// get their results; Submit calls after Close fail with 503.
func (b *microBatcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batches := make([]*pendingBatch, 0, len(b.pending))
	for _, pb := range b.pending {
		pb.timer.Stop()
		batches = append(batches, pb)
	}
	b.pending = map[string]*pendingBatch{}
	b.wg.Add(len(batches))
	b.mu.Unlock()

	for _, pb := range batches {
		go func(pb *pendingBatch) {
			defer b.wg.Done()
			b.execute(pb)
		}(pb)
	}
	b.wg.Wait()
}
