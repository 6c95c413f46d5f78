package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/bitserial"
	"pixel/internal/montecarlo"
	"pixel/internal/qnn"
	"pixel/internal/server"
	"pixel/internal/tensor"
)

// infer-mixed: an open loop of POST /v1/infer (LeNet) at a fixed rate,
// from inferConns connections (one for single-image requests, one for
// bulk ones), to a pixeld with default micro-batching. Most requests carry one image and one in bulkEvery
// carries bulkImages, so most images arrive in the large requests:
// single-image latency is dominated by the serving layer (decode,
// batch-window wait, encode) and bulk latency by qnn and bitserial.
const (
	inferNetwork = "lenet"
	inferConns   = 2
	// inferRate is the offered request rate, about half the capacity
	// this mix reached on the reference host (see README.md), so
	// requests queue without a growing backlog. It is a constant: a
	// faster server sees the same offered load.
	inferRate  = 160.0
	bulkImages = 64
	bulkEvery  = 8
)

type inferWL struct {
	seed   int64
	tr     *tracer
	srv    *server.Server
	lb     *loopback
	client *http.Client
	shape  pixel.InferShape
	rng    *rand.Rand // arrival schedule
	next   int        // next request index

	mu      sync.Mutex
	got     map[int]digest // request index -> digest of its outputs
	clients map[int]int64  // request index -> client span (traced)
	batches []inferBatch   // engine passes the server formed (traced)
	before  map[string]float64
	after   map[string]float64
}

// inferBatch is one batched engine pass: its interval and the images it
// carried, as (request index, image index) keys.
type inferBatch struct {
	start, end time.Time
	keys       []imageKey
}

type imageKey struct{ req, k int }

func setupInfer(ctx context.Context, seed int64, tr *tracer) (workload, error) {
	w := &inferWL{
		seed:    seed,
		tr:      tr,
		rng:     rand.New(rand.NewSource(seed)),
		got:     map[int]digest{},
		clients: map[int]int64{},
	}
	var eval server.InferEvaluator = server.PixelInfer{}
	if tr != nil {
		eval = tracedInfer{w}
	}
	w.srv = server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Infer:  eval,
		Logger: quietLogger(),
	})
	var h http.Handler = w.srv.Handler()
	if tr != nil {
		h = traceHandler(tr, "server.handler", h, nil)
	}
	var err error
	if w.lb, err = serve(h); err != nil {
		return nil, err
	}
	w.client = newClient(inferConns)
	// The first response resolves the network (weights, engine sizing)
	// on the serving path; set-up ends when it arrives.
	shape, err := pixel.InferNetworkShape(inferNetwork)
	if err != nil {
		w.close()
		return nil, err
	}
	w.shape = shape
	if _, _, _, err := w.send(ctx, -1); err != nil {
		w.close()
		return nil, fmt.Errorf("infer warm-up: %w", err)
	}
	return w, nil
}

func (w *inferWL) close() {
	if w.lb != nil {
		w.lb.close()
	}
	if w.client != nil {
		dropIdle(w.client)
	}
	w.srv.Close()
}

// isBulk reports whether request idx carries bulkImages images: exactly
// one request per block of bulkEvery, at a seeded position.
func (w *inferWL) isBulk(idx int) bool {
	if idx < 0 {
		return false
	}
	block := uint64(idx / bulkEvery)
	return int(mix(uint64(w.seed), block, 0)%bulkEvery) == idx%bulkEvery
}

// lane sends single-image and bulk requests from separate connections,
// as an interactive client and a batch client would: a bulk request
// never waits behind a single one for a connection, nor the reverse.
func (w *inferWL) lane(idx int) int {
	if w.isBulk(idx) {
		return 1
	}
	return 0
}

func (w *inferWL) images(idx int) int {
	if w.isBulk(idx) {
		return bulkImages
	}
	return 1
}

// image generates image k of request idx. Its first pixels spell the
// request and image index (four bits each), so every image is unique
// and a traced engine pass can name the requests it carried; the rest
// is seeded noise over the network's activation range.
func (w *inferWL) image(idx, k int) []int64 {
	n := w.shape.H * w.shape.W * w.shape.C
	img := make([]int64, n)
	id := uint64(idx + 1)
	for i := 0; i < 6; i++ {
		img[i] = int64(id >> (4 * i) & 15)
	}
	img[6], img[7] = int64(k&15), int64(k>>4&15)
	r := rand.New(rand.NewSource(int64(mix(uint64(w.seed), uint64(idx+1), uint64(k)))))
	for i := 8; i < n; i++ {
		img[i] = r.Int63n(w.shape.MaxValue + 1)
	}
	return img
}

// keyOf reads back the (request, image) key image() wrote.
func keyOf(img []int64) imageKey {
	var id uint64
	for i := 5; i >= 0; i-- {
		id = id<<4 | uint64(img[i])
	}
	return imageKey{req: int(id) - 1, k: int(img[6] | img[7]<<4)}
}

// body encodes request idx as the /v1/infer JSON body.
func (w *inferWL) body(idx int) []byte {
	n := w.images(idx)
	b := make([]byte, 0, 32+n*w.shape.H*w.shape.W*w.shape.C*3)
	b = append(b, `{"network":"`+inferNetwork+`","images":[`...)
	for k := 0; k < n; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range w.image(idx, k) {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// outputsDigest fingerprints per-image outputs and argmaxes in request
// order — what a response must agree on with the oracle.
func outputsDigest(outs [][]int64, argmax []int) digest {
	var b []byte
	for i, o := range outs {
		b = binary.LittleEndian.AppendUint64(b, uint64(argmax[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(o)))
		for _, v := range o {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return digestOf(b)
}

// send posts request idx and records the digest of its outputs.
func (w *inferWL) send(ctx context.Context, idx int) (time.Time, time.Time, int64, error) {
	body := w.body(idx)
	resp, sent, done, client, err := post(ctx, w.client, w.tr, w.lb.url+"/v1/infer", body, int64(idx+1))
	if err != nil {
		return sent, done, client, err
	}
	var ir api.InferResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		return sent, done, client, fmt.Errorf("infer response: %w", err)
	}
	outs := make([][]int64, len(ir.Results))
	am := make([]int, len(ir.Results))
	for i, r := range ir.Results {
		outs[i], am[i] = r.Outputs, r.ArgMax
	}
	if idx >= 0 {
		w.mu.Lock()
		w.got[idx] = outputsDigest(outs, am)
		if client != 0 {
			w.clients[idx] = client
		}
		w.mu.Unlock()
	}
	return sent, done, client, nil
}

func (w *inferWL) measure(ctx context.Context, window time.Duration) (*outcome, error) {
	n := int(inferRate*window.Seconds() + 0.5)
	sched := openSchedule(w.rng, n, window, w.next)
	w.next += n
	traced := w.tr.recording()
	if traced {
		var err error
		if w.before, err = scrape(ctx, w.client, w.lb.url); err != nil {
			return nil, err
		}
	}
	samples := runOpen(ctx, sched, inferConns, w.lane, func(ctx context.Context, idx int) (time.Time, time.Time, error) {
		sent, done, _, err := w.send(ctx, idx)
		return sent, done, err
	})
	if traced {
		var err error
		if w.after, err = scrape(ctx, w.client, w.lb.url); err != nil {
			return nil, err
		}
	}
	out := &outcome{attempted: len(samples)}
	var ok []sample
	for _, s := range samples {
		if s.err != nil {
			out.failed++
			continue
		}
		ok = append(ok, s)
		ms := float64(s.latency()) / 1e6
		if w.isBulk(s.idx) {
			out.secondary = append(out.secondary, ms)
		} else {
			out.primary = append(out.primary, ms)
		}
		out.work += float64(w.images(s.idx))
		if traced {
			w.mu.Lock()
			id := w.clients[s.idx]
			w.mu.Unlock()
			closeClient(w.tr, id, int64(s.idx+1), s)
		}
	}
	out.busy = windowOf(ok).Seconds()
	return out, nil
}

// check runs every answered request's images through the oracle —
// Model.RunContext on qnn.ReferenceDotter, which bypasses the batched
// path entirely — and compares output digests.
func (w *inferWL) check(ctx context.Context) (int, error) {
	net, err := montecarlo.BuildNetwork(inferNetwork)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	idxs := make([]int, 0, len(w.got))
	for idx := range w.got {
		idxs = append(idxs, idx)
	}
	w.mu.Unlock()
	var failed int
	var mu sync.Mutex
	err = forEach(ctx, len(idxs), func(i int) error {
		idx := idxs[i]
		n := w.images(idx)
		outs := make([][]int64, n)
		am := make([]int, n)
		for k := 0; k < n; k++ {
			in := tensor.New(w.shape.H, w.shape.W, w.shape.C)
			copy(in.Data, w.image(idx, k))
			out, err := net.Model.RunContext(ctx, in, qnn.ReferenceDotter{}, qnn.RunOptions{Workers: 1})
			if err != nil {
				return err
			}
			outs[k], am[k] = out.Data, tensor.ArgMax(out)
		}
		w.mu.Lock()
		got := w.got[idx]
		w.mu.Unlock()
		if outputsDigest(outs, am) != got {
			mu.Lock()
			failed++
			mu.Unlock()
		}
		return nil
	})
	return failed, err
}

// tracedInfer times each batched engine pass the server forms and
// notes which images it carried.
type tracedInfer struct{ w *inferWL }

func (t tracedInfer) InferContext(ctx context.Context, spec pixel.InferSpec) ([]pixel.InferResult, error) {
	start := time.Now()
	res, err := server.PixelInfer{}.InferContext(ctx, spec)
	end := time.Now()
	if t.w.tr.recording() {
		b := inferBatch{start: start, end: end, keys: make([]imageKey, len(spec.Images))}
		for i, img := range spec.Images {
			b.keys[i] = keyOf(img)
		}
		t.w.mu.Lock()
		t.w.batches = append(t.w.batches, b)
		t.w.mu.Unlock()
	}
	return res, err
}

func (tracedInfer) NetworkShape(name string) (pixel.InferShape, error) {
	return server.PixelInfer{}.NetworkShape(name)
}

// maxReplayBatches caps how many recorded passes the traced run replays.
const maxReplayBatches = 400

func (w *inferWL) layers(ctx context.Context) (map[string]float64, error) {
	w.mu.Lock()
	batches := append([]inferBatch(nil), w.batches...)
	w.mu.Unlock()

	// Each request's share of its pass becomes a server.eval span under
	// its handler span, so self times follow from the span tree.
	spans := w.tr.snapshot()
	handler := map[int64]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Req] = s
		}
	}
	var wait, evalMs []float64
	for _, b := range batches {
		seen := map[int]bool{}
		for _, k := range b.keys {
			if seen[k.req] {
				continue
			}
			seen[k.req] = true
			h, ok := handler[int64(k.req+1)]
			if !ok {
				continue
			}
			e := span{ID: w.tr.newID(), Parent: h.ID, Req: h.Req, Name: "server.eval", Start: w.tr.ns(b.start), End: w.tr.ns(b.end)}
			w.tr.put(e)
			wait = append(wait, float64(e.Start-h.Start)/1e6)
			evalMs = append(evalMs, float64(e.dur())/1e6)
		}
	}
	m := requestLayers(w.tr.snapshot())
	m["server.wait_ms"] = mean(wait)
	m["server.eval_ms"] = mean(evalMs)
	d := counterDelta(w.before, w.after, "pixeld_infer_images_total", "pixeld_infer_batches_total", "pixeld_shed_total", "pixeld_coalesced_total")
	if d["pixeld_infer_batches_total"] > 0 {
		m["server.batch_images"] = d["pixeld_infer_images_total"] / d["pixeld_infer_batches_total"]
	}
	m["server.shed"] = d["pixeld_shed_total"]
	m["server.coalesced"] = d["pixeld_coalesced_total"]

	rep, err := w.replay(ctx, batches)
	if err != nil {
		return nil, err
	}
	for k, v := range rep {
		m[k] = v
	}
	return m, nil
}

// replay runs a sample of the recorded passes again through
// Model.RunBatch on a timed wrapper around a batched engine built as the
// server builds its own, splitting each pass into qnn's own work
// (lowering, fused epilogues, arena) and the bitserial engine's.
func (w *inferWL) replay(ctx context.Context, batches []inferBatch) (map[string]float64, error) {
	if len(batches) == 0 {
		return map[string]float64{}, nil
	}
	net, err := montecarlo.BuildNetwork(inferNetwork)
	if err != nil {
		return nil, err
	}
	eng, err := bitserial.NewBatchedStripes(net.Bits, net.Terms)
	if err != nil {
		return nil, err
	}
	step := (len(batches) + maxReplayBatches - 1) / maxReplayBatches
	var runMs, selfMs, engMs, liveMs []float64
	var calls, macs, callNs float64
	arena := tensor.NewArena()
	for i := 0; i < len(batches); i += step {
		b := batches[i]
		ins := make([]*tensor.Tensor, len(b.keys))
		for j, k := range b.keys {
			ins[j] = tensor.New(w.shape.H, w.shape.W, w.shape.C)
			copy(ins[j].Data, w.image(k.req, k.k))
		}
		td := &timedMulti{inner: eng, t0: time.Now()}
		start := time.Now()
		outs, err := net.Model.RunBatch(ctx, ins, td, qnn.RunOptions{Workers: runtime.GOMAXPROCS(0), Arena: arena})
		end := time.Now()
		if err != nil {
			return nil, err
		}
		arena.Put(outs...)
		root := span{ID: -1, Start: int64(start.Sub(td.t0)), End: int64(end.Sub(td.t0))}
		union := covered(root.Start, root.End, td.spans)
		runMs = append(runMs, float64(root.dur())/1e6)
		engMs = append(engMs, float64(union)/1e6)
		selfMs = append(selfMs, float64(root.dur()-union)/1e6)
		liveMs = append(liveMs, float64(b.end.Sub(b.start))/1e6)
		for _, s := range td.spans {
			callNs += float64(s.dur())
		}
		calls += float64(len(td.spans))
		macs += float64(td.macs)
	}
	m := map[string]float64{
		"qnn.runbatch_ms":     mean(runMs),
		"qnn.self_ms":         mean(selfMs),
		"qnn.replay_ratio":    mean(runMs) / mean(liveMs),
		"bitserial.engine_ms": mean(engMs),
		"bitserial.calls":     calls / float64(len(runMs)),
	}
	if callNs > 0 {
		m["bitserial.mmac_per_s"] = macs / (callNs / 1e9) / 1e6
	}
	return m, nil
}

// timedMulti is a qnn.MultiDotter that times every call into the
// wrapped batched engine and counts the MACs it computed.
type timedMulti struct {
	inner *bitserial.BatchedStripes
	t0    time.Time

	mu    sync.Mutex
	spans []span
	macs  int64
}

func (d *timedMulti) note(start time.Time, macs int) {
	end := time.Now()
	d.mu.Lock()
	d.spans = append(d.spans, span{Start: int64(start.Sub(d.t0)), End: int64(end.Sub(d.t0))})
	d.macs += int64(macs)
	d.mu.Unlock()
}

func (d *timedMulti) DotProduct(a, b []uint64) (uint64, error) {
	start := time.Now()
	v, err := d.inner.DotProduct(a, b)
	d.note(start, len(a))
	return v, err
}

func (d *timedMulti) DotProducts(windows [][]uint64, weights []uint64, out []uint64) error {
	start := time.Now()
	err := d.inner.DotProducts(windows, weights, out)
	d.note(start, len(windows)*len(weights))
	return err
}

func (d *timedMulti) DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error {
	start := time.Now()
	err := d.inner.DotProductsMulti(windows, filters, outs)
	n := 0
	if len(filters) > 0 {
		n = len(windows) * len(filters) * len(filters[0])
	}
	d.note(start, n)
	return err
}
