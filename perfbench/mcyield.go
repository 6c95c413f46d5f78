package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/arch"
	"pixel/internal/bitserial"
	"pixel/internal/montecarlo"
	"pixel/internal/protect"
	"pixel/internal/qnn"
	"pixel/internal/server"
)

// mc-yield: a closed loop of one client sending POST /v1/robustness,
// one request at a time, to a pixeld serving pixel.RobustnessContext.
// Every request is LeNet OO on a fixed σ axis that spans low σ, where
// most trials are clean and skip inference, to high σ, where every
// trial runs perturbed inference on the per-dot-product path. Each
// request has its own seed, so nothing coalesces; one request in
// protectEvery is protected, alternating tmr and parity.
//
// A perturbed trial's cost grows with its flip rates, which span orders
// of magnitude between draws (1.5 ms to over 40 ms per LeNet inference),
// so request seeds drawn blindly make the work of a run depend on the
// seed more than on the code. Each request's seed is therefore drawn
// until its predicted work (see predictedWork) lies within workBand of a
// fixed target: seeds change the draws, not the amount of work, the way
// a fixed image count does for inference.
var mcSigmas = []float64{0.5, 1, 2}

const (
	mcNetwork    = "lenet"
	mcDesign     = "OO"
	mcTrials     = 8
	protectEvery = 4
	// mcReplayRequests is how many traced requests the traced run
	// replays, every (σ, trial) slot of each, through the Monte-Carlo
	// engine's public steps. Whole requests, because a trial's cost is
	// heavy-tailed and a few scattered slots would miss the heavy ones.
	mcReplayRequests = 4
	// flipsPerTrial is how many injected flips cost about what one
	// perturbed LeNet inference costs without flips (about 55 ns a flip
	// against 1.5 ms an inference on the reference host).
	flipsPerTrial = 27000
	workBand      = 0.1
	// targetRoots is how many seed-independent roots fix the work target
	// (their median predicted work); maxCandidates bounds the draws per
	// request, past which the closest candidate is taken.
	targetRoots   = 64
	maxCandidates = 4096
	// goldenSeed is the default workload seed; mcGolden holds the body
	// digests of its requests as answered at the commit that defined
	// this benchmark.
	goldenSeed = 1
)

//go:embed mc_golden.txt
var mcGolden string

type mcWL struct {
	seed   int64
	tr     *tracer
	srv    *server.Server
	lb     *loopback
	client *http.Client
	next   int

	planOnce sync.Once
	elems    float64 // multiplies in one inference of the network
	accWidth float64
	target   float64 // predicted work every request is drawn close to

	mu      sync.Mutex
	seeds   map[int]int64 // request index -> chosen root seed
	got     map[int]digest
	clients map[int]int64
	reports map[int]mcReport // traced requests' report summaries
	before  map[string]float64
	after   map[string]float64
}

// mcReport is the part of a robustness report the per-layer metrics
// read: clean trials per σ point and the protection retry factor.
type mcReport struct {
	Points []struct {
		CleanTrials int `json:"clean_trials"`
	} `json:"points"`
	Protection *struct {
		MaxRetryFactor float64 `json:"max_retry_factor"`
	} `json:"protection"`
}

func setupMC(ctx context.Context, seed int64, tr *tracer) (workload, error) {
	w := &mcWL{
		seed:    seed,
		tr:      tr,
		seeds:   map[int]int64{},
		got:     map[int]digest{},
		clients: map[int]int64{},
		reports: map[int]mcReport{},
	}
	var robust server.RobustnessEvaluator = server.RobustnessFunc(pixel.RobustnessContext)
	if tr != nil {
		robust = server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			start := time.Now()
			rep, err := pixel.RobustnessContext(ctx, spec)
			tr.add("server.eval", 0, spanFrom(ctx), start, time.Now())
			return rep, err
		})
	}
	w.srv = server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: robust,
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
	w.client = newClient(1)
	warm := api.RobustnessRequest{Network: mcNetwork, Design: mcDesign, Sigmas: []float64{1}, Trials: 1, Seed: seed}
	body, err := json.Marshal(warm)
	if err != nil {
		w.close()
		return nil, err
	}
	if _, _, _, _, err := post(ctx, w.client, nil, w.lb.url+"/v1/robustness", body, 0); err != nil {
		w.close()
		return nil, fmt.Errorf("robustness warm-up: %w", err)
	}
	return w, nil
}

func (w *mcWL) close() {
	if w.lb != nil {
		w.lb.close()
	}
	if w.client != nil {
		dropIdle(w.client)
	}
	w.srv.Close()
}

// request builds request idx: its own seed, and protection on exactly
// one request per block of protectEvery at a seeded position.
func (w *mcWL) request(idx int) api.RobustnessRequest {
	req := api.RobustnessRequest{
		Network: mcNetwork,
		Design:  mcDesign,
		Sigmas:  mcSigmas,
		Trials:  mcTrials,
		Seed:    w.rootSeed(idx),
	}
	block := idx / protectEvery
	if int(mix(uint64(w.seed), uint64(block), 2)%protectEvery) == idx%protectEvery {
		scheme := "tmr"
		if block%2 == 1 {
			scheme = "parity"
		}
		req.Protection = &api.ProtectionSpec{Scheme: scheme}
	}
	return req
}

// rootSeed returns request idx's root seed: the first seeded candidate
// whose predicted work is within workBand of the target.
func (w *mcWL) rootSeed(idx int) int64 {
	w.mu.Lock()
	root, ok := w.seeds[idx]
	w.mu.Unlock()
	if ok {
		return root
	}
	w.planOnce.Do(w.plan)
	r := rand.New(rand.NewSource(int64(mix(uint64(w.seed), uint64(idx), 1))))
	best, bestDev := int64(0), math.Inf(1)
	for k := 0; k < maxCandidates; k++ {
		c := r.Int63()
		dev := math.Abs(w.predictedWork(c)/w.target - 1)
		if dev < bestDev {
			best, bestDev = c, dev
		}
		if dev <= workBand {
			break
		}
	}
	w.mu.Lock()
	w.seeds[idx] = best
	w.mu.Unlock()
	return best
}

// plan sizes the work model: the multiplies of one inference (counted
// on the oracle engine), the accumulator width, and the target — the
// median predicted work over seed-independent roots.
func (w *mcWL) plan() {
	net, err := montecarlo.BuildNetwork(mcNetwork)
	if err != nil {
		panic(err) // mcNetwork is a built-in network
	}
	cd := &countDotter{}
	if _, err := net.Model.Run(net.Input, cd); err != nil {
		panic(err) // the built-in network runs on the oracle
	}
	fe, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		panic(err)
	}
	w.elems, w.accWidth = float64(cd.n), float64(fe.AccumulatorWidth())
	r := rand.New(rand.NewSource(0x5eed))
	ws := make([]float64, targetRoots)
	for i := range ws {
		ws[i] = w.predictedWork(r.Int63())
	}
	w.target = median(ws)
}

// predictedWork is a request's expected Monte-Carlo work for a root
// seed, from the public variation steps alone: one unit per perturbed
// trial plus its expected flips (multiplies times product width times
// the multiply rate, plus the accumulate exposure) in flipsPerTrial
// units. Clean trials skip inference and count nothing.
func (w *mcWL) predictedWork(root int64) float64 {
	var units float64
	for _, sigma := range mcSigmas {
		model := montecarlo.DefaultVariationModel().Scale(sigma)
		for t := 0; t < mcTrials; t++ {
			pert := model.Sample(rand.New(rand.NewSource(trialSeed(root, t, 0))))
			rates, err := model.Rates(pert, arch.OO)
			if err != nil || rates.Zero() {
				continue
			}
			flips := w.elems * (rates.Mul*2*qnn.DemoLeNetBits + rates.Acc*w.accWidth)
			units += 1 + flips/flipsPerTrial
		}
	}
	return units
}

// countDotter is the oracle Dotter, counting multiplies.
type countDotter struct{ n int }

func (c *countDotter) DotProduct(a, b []uint64) (uint64, error) {
	c.n += len(a)
	return qnn.ReferenceDotter{}.DotProduct(a, b)
}

func (w *mcWL) send(ctx context.Context, idx int) (time.Time, time.Time, error) {
	body, err := json.Marshal(w.request(idx))
	if err != nil {
		now := time.Now()
		return now, now, err
	}
	resp, sent, done, client, err := post(ctx, w.client, w.tr, w.lb.url+"/v1/robustness", body, int64(idx+1))
	if err != nil {
		return sent, done, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.got[idx] = digestOf(resp)
	if client != 0 {
		w.clients[idx] = client
		var rep mcReport
		if err := json.Unmarshal(resp, &rep); err != nil {
			return sent, done, fmt.Errorf("robustness response: %w", err)
		}
		w.reports[idx] = rep
	}
	return sent, done, nil
}

func slots() int { return len(mcSigmas) * mcTrials }

func (w *mcWL) measure(ctx context.Context, window time.Duration) (*outcome, error) {
	traced := w.tr.recording()
	if traced {
		var err error
		if w.before, err = scrape(ctx, w.client, w.lb.url); err != nil {
			return nil, err
		}
	}
	samples := runClosed(ctx, 1, window, w.next, w.send)
	w.next += len(samples)
	if traced {
		var err error
		if w.after, err = scrape(ctx, w.client, w.lb.url); err != nil {
			return nil, err
		}
	}
	out := &outcome{attempted: len(samples)}
	for _, s := range samples {
		if s.err != nil {
			out.failed++
			continue
		}
		ms := float64(s.latency()) / 1e6
		if w.request(s.idx).Protection != nil {
			out.secondary = append(out.secondary, ms)
		} else {
			// work_per_s is unprotected σ×trial slots per second spent on
			// unprotected requests.
			out.primary = append(out.primary, ms)
			out.work += float64(slots())
			out.busy += ms / 1e3
		}
		if traced {
			w.mu.Lock()
			id := w.clients[s.idx]
			w.mu.Unlock()
			closeClient(w.tr, id, int64(s.idx+1), s)
		}
	}
	return out, nil
}

// goldenDigests parses mcGolden: one hex digest per line, request order.
func goldenDigests() ([]digest, error) {
	var out []digest
	sc := bufio.NewScanner(strings.NewReader(mcGolden))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			d, err := parseDigest(line)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	}
	return out, sc.Err()
}

// reference computes request idx's report in-process at Workers 1 and
// encodes it exactly as pixeld does, returning the body's digest.
func (w *mcWL) reference(ctx context.Context, idx int) (digest, error) {
	req := w.request(idx)
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		return digest{}, err
	}
	rep, err := pixel.RobustnessContext(ctx, pixel.RobustnessSpec{
		Network: req.Network, Design: d, Sigmas: req.Sigmas, Trials: req.Trials,
		Seed: req.Seed, ErrorBudget: req.ErrorBudget, Protection: req.Protection, Workers: 1,
	})
	if err != nil {
		return digest{}, err
	}
	return digestOf(encodeLikeServer(rep)), nil
}

// encodeLikeServer renders v as pixeld's writeJSON does.
func encodeLikeServer(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a report always encodes
	return buf.Bytes()
}

// check compares every report body byte for byte: against the recorded
// digests on the default seed, and against an in-process run at
// Workers 1 otherwise (or past the recorded requests).
func (w *mcWL) check(ctx context.Context) (int, error) {
	golden, err := goldenDigests()
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	got := make(map[int]digest, len(w.got))
	for k, v := range w.got {
		got[k] = v
	}
	w.mu.Unlock()
	var todo []int
	failed := 0
	for idx, d := range got {
		switch {
		case w.seed == goldenSeed && idx < len(golden):
			if d != golden[idx] {
				failed++
			}
		default:
			todo = append(todo, idx)
		}
	}
	var mu sync.Mutex
	err = forEach(ctx, len(todo), func(i int) error {
		ref, err := w.reference(ctx, todo[i])
		if err != nil {
			return err
		}
		if ref != got[todo[i]] {
			mu.Lock()
			failed++
			mu.Unlock()
		}
		return nil
	})
	return failed, err
}

func (w *mcWL) layers(ctx context.Context) (map[string]float64, error) {
	spans := w.tr.snapshot()
	m := requestLayers(spans)
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var wait, evalMs []float64
	evalNs := map[int]float64{} // request index -> served evaluation time
	for _, s := range spans {
		if s.Name != "server.eval" {
			continue
		}
		if h, ok := byID[s.Parent]; ok {
			wait = append(wait, float64(s.Start-h.Start)/1e6)
			evalNs[int(h.Req-1)] += float64(s.dur())
		}
		evalMs = append(evalMs, float64(s.dur())/1e6)
	}
	m["server.wait_ms"] = mean(wait)
	m["server.eval_ms"] = mean(evalMs)
	d := counterDelta(w.before, w.after, "pixeld_shed_total", "pixeld_coalesced_total")
	m["server.shed"] = d["pixeld_shed_total"]
	m["server.coalesced"] = d["pixeld_coalesced_total"]

	w.mu.Lock()
	reports := make(map[int]mcReport, len(w.reports))
	for k, v := range w.reports {
		reports[k] = v
	}
	w.mu.Unlock()
	var clean, total int
	var retry []float64
	idxs := make([]int, 0, len(reports))
	for idx, rep := range reports {
		idxs = append(idxs, idx)
		for _, p := range rep.Points {
			clean += p.CleanTrials
		}
		total += slots()
		if rep.Protection != nil {
			retry = append(retry, rep.Protection.MaxRetryFactor)
		}
	}
	if total == 0 {
		return m, nil
	}
	m["montecarlo.clean_ratio"] = float64(clean) / float64(total)
	m["protect.retry_factor"] = mean(retry)

	rep, picked, replayNs, err := w.replay(ctx, idxs)
	if err != nil {
		return nil, err
	}
	for k, v := range rep {
		m[k] = v
	}
	// The server runs a request's trials on GOMAXPROCS workers; the
	// replay runs them one at a time, so agreement means the replay of
	// the picked requests took their served time times the pool width.
	var served float64
	for _, idx := range picked {
		served += evalNs[idx]
	}
	if served > 0 {
		m["montecarlo.replay_ratio"] = replayNs / (served * float64(runtime.GOMAXPROCS(0)))
	}
	return m, nil
}

// replay re-runs a seeded sample of the traced requests, every (σ,
// trial) slot of each, through the Monte-Carlo engine's public steps —
// variation sampling and rate mapping, a fault-injecting engine, the
// protection wrapper, and Model.RunContext on a timed Dotter — timing
// each step.
// It returns the step metrics, the requests it replayed and the time
// their replay took.
func (w *mcWL) replay(ctx context.Context, idxs []int) (map[string]float64, []int, float64, error) {
	net, err := montecarlo.BuildNetwork(mcNetwork)
	if err != nil {
		return nil, nil, 0, err
	}
	sort.Ints(idxs)
	picks := rand.New(rand.NewSource(w.seed)).Perm(len(idxs))
	if len(picks) > mcReplayRequests {
		picks = picks[:mcReplayRequests]
	}
	picked := make([]int, len(picks))
	var sampleUs, inferMs []float64
	var dotNs, dots, slotNs float64
	perInference := -1.0
	for i, p := range picks {
		picked[i] = idxs[p]
		req := w.request(idxs[p])
		for _, sigma := range mcSigmas {
			for trial := 0; trial < mcTrials; trial++ {
				start := time.Now()
				model := montecarlo.DefaultVariationModel().Scale(sigma)
				pert := model.Sample(rand.New(rand.NewSource(trialSeed(req.Seed, trial, 0))))
				rates, err := model.Rates(pert, arch.OO)
				if err != nil {
					return nil, nil, 0, err
				}
				sampled := time.Since(start)
				sampleUs = append(sampleUs, float64(sampled)/1e3)
				slotNs += float64(sampled)
				if !rates.Zero() {
					td, elapsed, err := runTrial(ctx, net, req.Seed, trial, rates, nil)
					if err != nil {
						return nil, nil, 0, err
					}
					inferMs = append(inferMs, float64(elapsed)/1e6)
					slotNs += float64(elapsed)
					dotNs += float64(td.ns)
					dots += float64(td.calls)
					if perInference < 0 {
						perInference = float64(td.calls)
					} else if perInference != float64(td.calls) {
						return nil, nil, 0, fmt.Errorf("replay: dot products per inference changed from %v to %d", perInference, td.calls)
					}
				}
				if req.Protection == nil {
					continue
				}
				scheme := protect.Scheme(protect.TMR())
				if req.Protection.Scheme == "parity" {
					scheme = protect.Parity{Retries: 3}
				}
				pRates, err := model.ProtectedRates(pert, arch.OO, scheme.Derate())
				if err != nil {
					return nil, nil, 0, err
				}
				if !pRates.Zero() {
					_, elapsed, err := runTrial(ctx, net, req.Seed, trial, pRates, scheme)
					if err != nil {
						return nil, nil, 0, err
					}
					slotNs += float64(elapsed)
				}
			}
		}
	}
	m := map[string]float64{
		"montecarlo.sample_us":    mean(sampleUs),
		"montecarlo.inference_ms": mean(inferMs),
	}
	if dots > 0 {
		m["montecarlo.dot_ns"] = dotNs / dots
		m["montecarlo.dot_calls"] = perInference
	}
	return m, picked, slotNs, nil
}

// runTrial runs one perturbed inference of a trial: a fault-injecting
// engine seeded as the Monte-Carlo engine seeds it, optionally wrapped
// by a protection scheme, under Model.RunContext on one worker.
func runTrial(ctx context.Context, net montecarlo.Network, seed int64, trial int, rates bitserial.FlipRates, scheme protect.Scheme) (*timedDotter, time.Duration, error) {
	start := time.Now()
	eng, err := bitserial.NewPerturbedEngine(net.Bits, net.Terms, rates,
		rand.New(rand.NewSource(trialSeed(seed, trial, 1))),
		rand.New(rand.NewSource(trialSeed(seed, trial, 2))))
	if err != nil {
		return nil, 0, err
	}
	var st bitserial.Stripes = eng
	if scheme != nil {
		if st, err = scheme.Wrap(eng); err != nil {
			return nil, 0, err
		}
	}
	td := &timedDotter{e: st}
	if _, err := net.Model.RunContext(ctx, net.Input, td, qnn.RunOptions{Workers: 1}); err != nil {
		return nil, 0, err
	}
	return td, time.Since(start), nil
}

// timedDotter is a qnn.Dotter over a Stripes engine that times every
// dot product. Like the Monte-Carlo engine's own adapter it is not a
// BatchDotter, so every dot product is one call; it is used serially.
type timedDotter struct {
	e     bitserial.Stripes
	ns    time.Duration
	calls int
}

func (d *timedDotter) DotProduct(a, b []uint64) (uint64, error) {
	start := time.Now()
	v, _, err := d.e.DotProduct(a, b)
	d.ns += time.Since(start)
	d.calls++
	return v, err
}

// trialSeed derives the seed of stream (0 perturbation, 1 multiply
// faults, 2 accumulate faults) of a trial from a request's root seed,
// the way the Monte-Carlo engine does, so a replayed slot draws the
// same faults it drew when served.
func trialSeed(root int64, trial, stream int) int64 {
	return int64(splitmix64(splitmix64(uint64(root)) + uint64(trial)*3 + uint64(stream)))
}
