package server

import (
	"context"
	"net/http"
	"sync"

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

// DefaultBatchSize is the default image count at which a pending
// /v1/infer batch dispatches as a pass of its own (also the pixeld
// -batch-size default).
const DefaultBatchSize = 8

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

// lane is one network's batching state: the pending batch, and
// whether the network's pass slot is taken. Jobs wait in the lane only
// while it is busy.
type lane struct {
	jobs   []*inferJob // arrival order; results fan out in this order
	images int
	busy   bool
}

// take hands the pending batch to a pass.
func (l *lane) take() []*inferJob {
	jobs := l.jobs
	l.jobs, l.images = nil, 0
	return jobs
}

// microBatcher turns concurrent single-request /v1/infer traffic into
// batched engine passes, work-conservingly (adaptive batching as in
// Clipper, Crankshaw et al., NSDI 2017). Each network has one pass
// slot: a request that finds it free dispatches at once, requests that
// arrive while its pass runs collect into the pending batch, and that
// pass hands the batch to the engine the moment it ends. A pending
// batch that reaches batchSize images dispatches at once as a pass of
// its own, outside the slot, so a bulk request never waits behind
// another pass and never holds back the requests after it.
// Per-request result slices fan back out in arrival order. Each
// network batches independently (different networks cannot share a
// pass).
type microBatcher struct {
	run       func(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error)
	batchSize int

	mu     sync.Mutex
	lanes  map[string]*lane // one per network served; names are validated upstream
	closed bool
	wg     sync.WaitGroup // running passes, for Close to drain
}

func newMicroBatcher(run func(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error), batchSize int) *microBatcher {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &microBatcher{
		run:       run,
		batchSize: batchSize,
		lanes:     map[string]*lane{},
	}
}

// Submit enqueues one request's images and blocks until its slice of
// the batched results is ready or ctx is cancelled. Cancellation
// removes only this request from its pending batch; jobs already
// handed to a running pass are unaffected (the caller just stops
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
	l := b.lanes[network]
	if l == nil {
		l = &lane{}
		b.lanes[network] = l
	}
	l.jobs = append(l.jobs, job)
	l.images += len(images)
	switch {
	case l.images >= b.batchSize:
		jobs := l.take()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.execute(network, jobs)
		}()
	case !l.busy:
		l.busy = true
		b.wg.Add(1)
		go b.drive(network, l, l.take())
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

// drive holds the network's pass slot: it runs jobs as one pass, then,
// as long as requests collected behind it, runs them as the next pass.
// Jobs wait in a lane only while it is busy, so every accepted job
// reaches a pass.
func (b *microBatcher) drive(network string, l *lane, jobs []*inferJob) {
	defer b.wg.Done()
	for len(jobs) > 0 {
		b.execute(network, jobs)
		b.mu.Lock()
		jobs = l.take()
		l.busy = len(jobs) > 0
		b.mu.Unlock()
	}
}

// remove drops one cancelled job from its network's pending batch. If
// the job already rode a pass there is nothing to do; if it was the
// batch's last occupant the batch never runs.
func (b *microBatcher) remove(network string, job *inferJob) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.lanes[network]
	for i, j := range l.jobs {
		if j == job {
			l.jobs = append(l.jobs[:i], l.jobs[i+1:]...)
			l.images -= len(job.images)
			return
		}
	}
}

// execute runs jobs through a single engine pass and fans each job's
// result slice back in arrival order. On error every waiting job
// receives the same failure.
func (b *microBatcher) execute(network string, jobs []*inferJob) {
	images := 0
	for _, j := range jobs {
		images += len(j.images)
	}
	all := make([][]int64, 0, images)
	for _, j := range jobs {
		all = append(all, j.images...)
	}
	results, err := b.run(context.Background(), network, all)
	off := 0
	for _, j := range jobs {
		n := len(j.images)
		if err != nil {
			j.done <- inferReply{err: err}
		} else {
			j.done <- inferReply{results: results[off : off+n], batched: len(all)}
		}
		off += n
	}
}

// Close stops accepting new work and waits until every accepted job
// has its reply: each busy lane's pass goes on to run the batch
// collected behind it. Submit calls after Close fail with 503.
func (b *microBatcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
}
