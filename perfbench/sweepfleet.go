package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/fleet"
	"pixel/internal/server"
)

// sweep-fleet: a closed loop of sweepClients connections to a fleet
// coordinator over two pixeld workers. Traffic is seeded POST /v1/sweep
// sub-grids of the CNN zoo (networks, designs, lane and bit ranges) with
// one single-point POST /v1/evaluate per block of evalEvery requests.
// The point universe is about twice one worker's result LRU
// (sweep.DefaultCacheSize, 4096 entries), so hits, misses and evictions
// all occur. qnn and bitserial do no work here.
const (
	sweepClients = 2
	sweepWorkers = 2
	evalEvery    = 5
	maxLanes     = 32 // lanes axis 1..maxLanes
	maxBits      = 14 // bits axis 1..maxBits: 6 nets x 3 designs x 32 x 14 = 8064 points
)

type sweepWL struct {
	seed    int64
	tr      *tracer
	nets    []string
	designs []string
	workers []*server.Server
	wlbs    []*loopback
	coord   *fleet.Coordinator
	clb     *loopback
	ref     http.Handler // one more worker, outside the fleet: the reference
	client  *http.Client
	next    int

	mu      sync.Mutex
	got     map[int]digest
	clients map[int]int64
	shards  map[int64]string // worker span -> shard body (traced)
	before  []map[string]float64
	after   []map[string]float64
}

func setupSweep(ctx context.Context, seed int64, tr *tracer) (workload, error) {
	w := &sweepWL{
		seed:    seed,
		tr:      tr,
		nets:    pixel.Networks(),
		got:     map[int]digest{},
		clients: map[int]int64{},
		shards:  map[int64]string{},
	}
	for _, d := range pixel.Designs() {
		w.designs = append(w.designs, d.String())
	}
	var addrs []string
	for i := 0; i < sweepWorkers; i++ {
		var eng server.Evaluator = pixel.NewEngine(pixel.EngineOptions{})
		if tr != nil {
			eng = tracedEngine{Engine: eng.(*pixel.Engine), tr: tr}
		}
		srv := server.New(server.Config{Engine: eng, Logger: quietLogger()})
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = traceHandler(tr, "worker.handler", h, w.inspect)
		}
		lb, err := serve(h)
		if err != nil {
			w.close()
			return nil, err
		}
		w.workers = append(w.workers, srv)
		w.wlbs = append(w.wlbs, lb)
		addrs = append(addrs, lb.url)
	}
	coord, err := fleet.New(fleet.Options{Workers: addrs, Logger: quietLogger()})
	if err != nil {
		w.close()
		return nil, err
	}
	w.coord = coord
	var h http.Handler = coord.Handler()
	if tr != nil {
		h = traceHandler(tr, "fleet.handler", h, nil)
	}
	if w.clb, err = serve(h); err != nil {
		w.close()
		return nil, err
	}
	w.ref = server.New(server.Config{Engine: pixel.NewEngine(pixel.EngineOptions{}), Logger: quietLogger()}).Handler()
	w.client = newClient(sweepClients)
	route, body, _ := w.request(-1)
	if _, _, _, _, err := post(ctx, w.client, nil, w.clb.url+route, body, 0); err != nil {
		w.close()
		return nil, fmt.Errorf("sweep warm-up: %w", err)
	}
	return w, nil
}

func (w *sweepWL) close() {
	if w.clb != nil {
		w.clb.close()
	}
	if w.coord != nil {
		w.coord.Close()
	}
	for _, lb := range w.wlbs {
		lb.close()
	}
	for _, s := range w.workers {
		s.Close()
	}
	if w.client != nil {
		dropIdle(w.client)
	}
}

// request builds request idx: its route, body and result-row count.
// One request per block of evalEvery, at a seeded position, prices one
// point; the rest sweep a seeded sub-grid.
func (w *sweepWL) request(idx int) (route string, body []byte, rows int) {
	r := rand.New(rand.NewSource(int64(mix(uint64(w.seed), uint64(idx+1), 3))))
	block := uint64((idx + evalEvery) / evalEvery)
	if idx >= 0 && int(mix(uint64(w.seed), block, 4)%evalEvery) == idx%evalEvery {
		req := api.EvaluateRequest{
			Network: w.nets[r.Intn(len(w.nets))],
			Design:  w.designs[r.Intn(len(w.designs))],
			Lanes:   1 + r.Intn(maxLanes),
			Bits:    1 + r.Intn(maxBits),
		}
		body, _ = json.Marshal(req) // plain struct: cannot fail
		return "/v1/evaluate", body, 1
	}
	perm := r.Perm(len(w.nets))
	req := api.SweepRequest{Networks: make([]string, 1+r.Intn(2))}
	for i := range req.Networks {
		req.Networks[i] = w.nets[perm[i]]
	}
	for _, d := range w.designs {
		if r.Intn(2) == 0 {
			req.Designs = append(req.Designs, d)
		}
	}
	if len(req.Designs) == 0 {
		req.Designs = []string{w.designs[r.Intn(len(w.designs))]}
	}
	req.Lanes = axisRun(r, maxLanes, 2, 8)
	req.Bits = axisRun(r, maxBits, 2, 6)
	body, _ = json.Marshal(req)
	return "/v1/sweep", body, len(req.Networks) * len(req.Designs) * len(req.Lanes) * len(req.Bits)
}

// axisRun draws a contiguous run of lo..hi values from 1..n.
func axisRun(r *rand.Rand, n, lo, hi int) []int {
	l := lo + r.Intn(hi-lo+1)
	first := 1 + r.Intn(n-l+1)
	out := make([]int, l)
	for i := range out {
		out[i] = first + i
	}
	return out
}

func (w *sweepWL) send(ctx context.Context, idx int) (time.Time, time.Time, error) {
	route, body, _ := w.request(idx)
	resp, sent, done, client, err := post(ctx, w.client, w.tr, w.clb.url+route, body, int64(idx+1))
	if err != nil {
		return sent, done, err
	}
	w.mu.Lock()
	w.got[idx] = digestOf(resp)
	if client != 0 {
		w.clients[idx] = client
	}
	w.mu.Unlock()
	return sent, done, nil
}

func (w *sweepWL) measure(ctx context.Context, window time.Duration) (*outcome, error) {
	traced := w.tr.recording()
	if traced {
		var err error
		if w.before, err = w.scrapeAll(ctx); err != nil {
			return nil, err
		}
	}
	samples := runClosed(ctx, sweepClients, window, w.next, w.send)
	w.next += len(samples)
	if traced {
		var err error
		if w.after, err = w.scrapeAll(ctx); err != nil {
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
		route, _, rows := w.request(s.idx)
		ms := float64(s.latency()) / 1e6
		if route == "/v1/sweep" {
			out.primary = append(out.primary, ms)
		} else {
			out.secondary = append(out.secondary, ms)
		}
		out.work += float64(rows)
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

// scrapeAll reads the workers' metrics, then the coordinator's.
func (w *sweepWL) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, lb := range append(append([]*loopback(nil), w.wlbs...), w.clb) {
		m, err := scrape(ctx, w.client, lb.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// check sends every request answered through the fleet to the
// reference worker in-process and compares bodies byte for byte.
func (w *sweepWL) check(ctx context.Context) (int, error) {
	w.mu.Lock()
	got := make(map[int]digest, len(w.got))
	for k, v := range w.got {
		got[k] = v
	}
	w.mu.Unlock()
	failed := 0
	for idx, d := range got {
		if err := ctx.Err(); err != nil {
			return failed, err
		}
		route, body, _ := w.request(idx)
		rec := httptest.NewRecorder()
		w.ref.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusOK || digestOf(rec.Body.Bytes()) != d {
			failed++
		}
	}
	return failed, nil
}

// inspect keeps the body of each traced worker request, so layers can
// attribute the shard to the coordinator request it belongs to.
func (w *sweepWL) inspect(id int64, r *http.Request) {
	if r.URL.Path != "/v1/sweep" && r.URL.Path != "/v1/evaluate" {
		return
	}
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(b))
	w.mu.Lock()
	w.shards[id] = r.URL.Path + " " + string(b)
	w.mu.Unlock()
}

// partOf reports whether shard (route + " " + body) is a piece of
// request idx: the same single point for an evaluate, a sub-grid of the
// same networks for a sweep.
func (w *sweepWL) partOf(shard string, idx int) bool {
	route, body, _ := w.request(idx)
	sroute, sbody, _ := bytes.Cut([]byte(shard), []byte(" "))
	if string(sroute) != route {
		return false
	}
	if route == "/v1/evaluate" {
		return bytes.Equal(sbody, body)
	}
	var full, sub api.SweepRequest
	if json.Unmarshal(body, &full) != nil || json.Unmarshal(sbody, &sub) != nil {
		return false
	}
	return slices.Equal(full.Networks, sub.Networks) && subset(sub.Designs, full.Designs) &&
		subset(sub.Lanes, full.Lanes) && subset(sub.Bits, full.Bits)
}

func subset[T comparable](sub, full []T) bool {
	for _, v := range sub {
		if !slices.Contains(full, v) {
			return false
		}
	}
	return len(sub) > 0
}

func (w *sweepWL) layers(ctx context.Context) (map[string]float64, error) {
	spans := w.tr.snapshot()
	w.mu.Lock()
	shards := make(map[int64]string, len(w.shards))
	for k, v := range w.shards {
		shards[k] = v
	}
	w.mu.Unlock()

	// A shard body is a sub-grid of exactly one coordinator request in
	// flight around it; attach each worker span to that request.
	var coords []span
	for _, s := range spans {
		if s.Name == "fleet.handler" && s.Req > 0 {
			coords = append(coords, s)
		}
	}
	sort.Slice(coords, func(i, j int) bool { return coords[i].Start < coords[j].Start })
	byID := map[int64]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	attempts := map[int64][]span{} // coordinator span -> its worker spans
	distinct := map[int64]map[string]bool{}
	for i, s := range spans {
		body, ok := shards[s.ID]
		if s.Name != "worker.handler" || !ok {
			continue
		}
		for _, c := range coords {
			if c.Start > s.Start {
				break
			}
			if s.End <= c.End && w.partOf(body, int(c.Req-1)) {
				spans[i].Parent = c.ID
				attempts[c.ID] = append(attempts[c.ID], spans[i])
				if distinct[c.ID] == nil {
					distinct[c.ID] = map[string]bool{}
				}
				distinct[c.ID][body] = true
				break
			}
		}
	}
	self := selfTimes(spans)

	m := requestLayers(spans)
	var fleetSelf, perReq, rest []float64
	var useful, tried float64
	var wait, workerSelf, evalMs []float64
	for _, c := range coords {
		ws := attempts[c.ID]
		if len(ws) == 0 {
			continue
		}
		longest := ws[0]
		for _, s := range ws[1:] {
			if s.dur() > longest.dur() {
				longest = s
			}
		}
		fleetSelf = append(fleetSelf, float64(c.dur()-longest.dur())/1e6)
		perReq = append(perReq, float64(len(distinct[c.ID])))
		useful += float64(len(distinct[c.ID]))
		tried += float64(len(ws))
		// The request's time: the generator's lateness, client transport,
		// the coordinator's own share, and the longest shard's serving
		// and engine time; what that leaves is unattributed.
		hop := spans[byID[c.Parent]]
		client := spans[byID[hop.Parent]]
		rest = append(rest, float64(client.dur()-self[client.ID]-self[hop.ID]-(c.dur()-longest.dur())-longest.dur())/1e6)
	}
	for _, s := range spans {
		if s.Name != "sweep.eval" {
			continue
		}
		h, ok := byID[s.Parent]
		if !ok {
			continue
		}
		wait = append(wait, float64(s.Start-spans[h].Start)/1e6)
		evalMs = append(evalMs, float64(s.dur())/1e6)
	}
	for id := range shards {
		if i, ok := byID[id]; ok && spans[i].Parent != 0 {
			workerSelf = append(workerSelf, float64(self[id])/1e6)
		}
	}
	m["server.wait_ms"] = mean(wait)
	m["server.eval_ms"] = mean(evalMs)
	m["server.self_ms"] = mean(workerSelf)
	m["sweep.eval_ms"] = mean(evalMs)
	m["fleet.self_ms"] = mean(fleetSelf)
	m["fleet.shards_per_request"] = mean(perReq)
	if tried > 0 {
		m["fleet.attempt_useful_ratio"] = useful / tried
	}
	m["trace.unattributed_ms"] = mean(rest)
	var e2e []float64
	for _, s := range spans {
		if s.Name == "client" {
			e2e = append(e2e, float64(s.dur())/1e6)
		}
	}
	if e := mean(e2e); e > 0 {
		m["trace.unattributed_pct"] = 100 * mean(rest) / e
	}

	var cost, hits, shed, coalesced float64
	for i := 0; i < sweepWorkers; i++ {
		d := counterDelta(w.before[i], w.after[i], "pixeld_engine_cost_calls_total", "pixeld_engine_cache_hits_total", "pixeld_shed_total", "pixeld_coalesced_total")
		cost += d["pixeld_engine_cost_calls_total"]
		hits += d["pixeld_engine_cache_hits_total"]
		shed += d["pixeld_shed_total"]
		coalesced += d["pixeld_coalesced_total"]
	}
	m["sweep.cost_calls"] = cost
	if hits+cost > 0 {
		m["sweep.cache_hit_ratio"] = hits / (hits + cost)
	}
	m["server.shed"] = shed
	m["server.coalesced"] = coalesced
	m["fleet.retries"] = counterDelta(w.before[sweepWorkers], w.after[sweepWorkers], "pixelfleet_shard_retries_total")["pixelfleet_shard_retries_total"]
	return m, nil
}

// tracedEngine times every evaluation a worker's engine performs,
// parented on the worker request that asked for it.
type tracedEngine struct {
	*pixel.Engine
	tr *tracer
}

func (e tracedEngine) EvaluateContext(ctx context.Context, network string, p pixel.Point) (pixel.Result, error) {
	start := time.Now()
	r, err := e.Engine.EvaluateContext(ctx, network, p)
	e.tr.add("sweep.eval", 0, spanFrom(ctx), start, time.Now())
	return r, err
}

func (e tracedEngine) SweepNetworks(ctx context.Context, networks []string, points []pixel.Point, opts *pixel.SweepOptions) (map[string][]pixel.Result, error) {
	start := time.Now()
	r, err := e.Engine.SweepNetworks(ctx, networks, points, opts)
	e.tr.add("sweep.eval", 0, spanFrom(ctx), start, time.Now())
	return r, err
}
