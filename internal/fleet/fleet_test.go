package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
	"pixel/internal/server"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorkerHandler builds a real single-node pixeld handler: the same
// engine and robustness evaluator the pixeld binary wires up. No job
// routes — tests that wrap the handler want the sync surface only.
func newWorkerHandler() http.Handler {
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			return pixel.RobustnessContext(ctx, spec)
		}),
		Logger: discardLogger(),
	})
	return srv.Handler()
}

// startWorker brings up one real worker with the job routes enabled —
// the shape a production fleet member has.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			return pixel.RobustnessContext(ctx, spec)
		}),
		Jobs:   &jobs.RegistryOptions{MaxRunning: 8},
		Logger: discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// startWorkers brings up n real workers and returns their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = startWorker(t).URL
	}
	return urls
}

// newTestCoordinator builds a coordinator with test-fast retry and
// job-poll timing and no sweep shard floor.
func newTestCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.RetryBaseDelay == 0 {
		opts.RetryBaseDelay = time.Millisecond
	}
	if opts.JobPollInterval == 0 {
		opts.JobPollInterval = 5 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	if opts.shardFloor == 0 {
		opts.shardFloor = 1 // ShardsPerWorker alone picks the shard count
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// postJSON posts v and returns the status plus the raw response body —
// raw bytes, because byte-identity is the contract under test.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// sweep48 is the canonical 48-point grid (3 designs x 4 lanes x 4 bit
// widths) over two networks.
func sweep48() api.SweepRequest {
	return api.SweepRequest{
		Networks: []string{"AlexNet", "LeNet"},
		Lanes:    []int{2, 4, 8, 16},
		Bits:     []int{2, 4, 6, 8},
	}
}

// TestSweepByteIdenticalAcrossShardCounts: the coordinator's /v1/sweep
// body is byte-for-byte the single-node body at shard targets 1, 2, 3
// and 7.
func TestSweepByteIdenticalAcrossShardCounts(t *testing.T) {
	workers := startWorkers(t, 3)
	req := sweep48()
	status, want := postJSON(t, workers[0]+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	cases := []struct {
		name    string
		workers []string
		spw     int
	}{
		{"1 shard", workers[:1], 1},
		{"2 shards", workers[:2], 1},
		{"3 shards", workers, 1},
		{"7 shards", workers[:1], 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCoordinator(t, Options{Workers: tc.workers, ShardsPerWorker: tc.spw})
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()
			status, got := postJSON(t, ts.URL+"/v1/sweep", req)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet sweep body differs from single node\nfleet: %.200s\nnode:  %.200s", got, want)
			}
		})
	}
}

// TestRobustnessByteIdenticalAcrossShardCounts: σ-axis sharding (with a
// protection curve riding along) merges byte-identically at shard
// targets 1, 2, 3 and 7.
func TestRobustnessByteIdenticalAcrossShardCounts(t *testing.T) {
	workers := startWorkers(t, 3)
	req := api.RobustnessRequest{
		Network: "LeNet", Design: "OO",
		Sigmas:     []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07},
		Trials:     6,
		Seed:       7,
		Protection: &api.ProtectionSpec{Scheme: "parity"},
	}
	status, want := postJSON(t, workers[0]+"/v1/robustness", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	cases := []struct {
		name    string
		workers []string
		spw     int
	}{
		{"1 shard", workers[:1], 1},
		{"2 shards", workers[:2], 1},
		{"3 shards", workers, 1},
		{"7 shards", workers[:1], 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCoordinator(t, Options{Workers: tc.workers, ShardsPerWorker: tc.spw})
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()
			status, got := postJSON(t, ts.URL+"/v1/robustness", req)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet robustness body differs from single node\nfleet: %.200s\nnode:  %.200s", got, want)
			}
		})
	}
}

// TestSweepSurvivesWorkerKilledMidRun: one worker serves its first
// sweep shard and then drops every later connection cold (a SIGKILL's
// view from the wire). Its shards fail over to the survivor and the
// merged body stays byte-identical.
func TestSweepSurvivesWorkerKilledMidRun(t *testing.T) {
	workers := startWorkers(t, 1)
	req := sweep48()
	status, want := postJSON(t, workers[0]+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	var served atomic.Int64
	inner := newWorkerHandler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && served.Add(1) > 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer is not a hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close() // no response, no FIN handshake courtesy: the process is "gone"
			return
		}
		inner.ServeHTTP(w, r)
	})

	// The ring hashes worker URLs, so which shards the dying worker owns
	// depends on its ephemeral port. Redraw until it owns at least two
	// of this request's shards, so the kill provably strands work.
	const shardsPerWorker = 8
	shards, _, err := planSweep(req, 2*shardsPerWorker)
	if err != nil {
		t.Fatal(err)
	}
	var dying *httptest.Server
	for tries := 0; tries < 16 && dying == nil; tries++ {
		s := httptest.NewServer(handler)
		owned := 0
		r := newRing([]string{workers[0], s.URL})
		for _, sh := range shards {
			if r.owner(sh.Key) == 1 {
				owned++
			}
		}
		if owned >= 2 {
			dying = s
		} else {
			s.Close()
		}
	}
	if dying == nil {
		t.Fatal("could not place a dying worker that owns shards")
	}
	defer dying.Close()

	c := newTestCoordinator(t, Options{
		Workers:         []string{workers[0], dying.URL},
		ShardsPerWorker: shardsPerWorker,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	status, got := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet sweep body differs from single node after mid-run worker death")
	}
	if served.Load() < 2 {
		t.Fatalf("dying worker saw %d sweep requests; the kill never happened", served.Load())
	}
	if c.metrics.retries.Load() == 0 {
		t.Fatal("no retries recorded though a worker died mid-run")
	}
}

// TestProberEvictsAndRevives: a worker reporting "draining" is evicted
// on the next probe and revived once it reports ok again.
func TestProberEvictsAndRevives(t *testing.T) {
	var draining atomic.Bool
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" && draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"draining"}`+"\n")
			return
		}
		io.WriteString(w, `{"status":"ok"}`+"\n")
	}))
	defer flappy.Close()

	c := newTestCoordinator(t, Options{
		Workers:       []string{flappy.URL},
		ProbeInterval: 5 * time.Millisecond,
	})
	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		members, _ := c.membership()
		for members[0].healthy.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("worker healthy never became %v", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	draining.Store(true)
	waitHealthy(false)
	if got := c.metrics.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	draining.Store(false)
	waitHealthy(true)
	if got := c.metrics.revivals.Load(); got != 1 {
		t.Fatalf("revivals = %d, want 1", got)
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"pixelfleet_worker_evictions_total 1",
		"pixelfleet_worker_revivals_total 1",
		"pixelfleet_workers_healthy 1",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestHedgeBeatsStraggler: with a latency baseline seeded, a shard
// routed to a straggling owner is hedged onto the fast worker and the
// hedge's result wins.
func TestHedgeBeatsStraggler(t *testing.T) {
	fast := httptest.NewServer(newWorkerHandler())
	defer fast.Close()
	inner := newWorkerHandler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/evaluate" {
			time.Sleep(500 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()

	c := newTestCoordinator(t, Options{
		Workers:         []string{fast.URL, slow.URL},
		HedgeMinSamples: 1,
		HedgeMinDelay:   5 * time.Millisecond,
	})
	c.window("/v1/evaluate").observe(time.Millisecond)

	// Find a design point the slow worker owns so the primary arm
	// genuinely straggles.
	req := api.EvaluateRequest{Network: "LeNet", Design: "OO"}
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lanes := range []int{2, 4, 8, 16} {
		for _, bits := range []int{2, 4, 6, 8} {
			p := pixel.Point{Design: d, Lanes: lanes, Bits: bits}
			if c.ring.owner(req.Network+"|"+p.String()) == 1 {
				req.Lanes, req.Bits = lanes, bits
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no probe point routed to the slow worker")
	}

	start := time.Now()
	res, err := c.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
		t.Fatalf("evaluate took %v; the hedge never won", elapsed)
	}
	if res.Network != "LeNet" || res.Lanes != req.Lanes {
		t.Fatalf("unexpected result %+v", res)
	}
	if c.metrics.hedgesFired.Load() == 0 || c.metrics.hedgesWon.Load() == 0 {
		t.Fatalf("hedges fired=%d won=%d, want both > 0",
			c.metrics.hedgesFired.Load(), c.metrics.hedgesWon.Load())
	}
}

// TestErrorPassthrough: a worker-side failure surfaces from the
// coordinator with the worker's own status and body.
func TestErrorPassthrough(t *testing.T) {
	workers := startWorkers(t, 2)
	req := api.EvaluateRequest{Network: "no-such-net", Design: "OO", Lanes: 4, Bits: 4}
	wantStatus, want := postJSON(t, workers[0]+"/v1/evaluate", req)
	if wantStatus != http.StatusNotFound {
		t.Fatalf("single node: status %d: %s", wantStatus, want)
	}
	c := newTestCoordinator(t, Options{Workers: workers})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	status, got := postJSON(t, ts.URL+"/v1/evaluate", req)
	if status != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("fleet error = %d %s, want %d %s", status, got, wantStatus, want)
	}
}

// TestCoordinatorSweepJob: a sweep submitted as a job fans out, reports
// chunked partial cells, and finishes with the single-node result.
func TestCoordinatorSweepJob(t *testing.T) {
	workers := startWorkers(t, 2)
	req := sweep48()
	status, singleBody := postJSON(t, workers[0]+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d", status)
	}
	var want api.SweepResponse
	if err := json.Unmarshal(singleBody, &want); err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, Options{Workers: workers})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindSweep, Sweep: &req})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var st api.JobStatusResponse
	for {
		st, err = cl.Job(context.Background(), h.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.JobStateSucceeded || st.State == api.JobStateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != api.JobStateSucceeded {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Done != st.Total || st.Total != len(req.Networks)*48 {
		t.Fatalf("done/total = %d/%d, want %d/%d", st.Done, st.Total, len(req.Networks)*48, len(req.Networks)*48)
	}
	var got api.SweepResponse
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("job result differs from the single-node sweep")
	}
	// Chunked partial results, white-box: the task accumulates every
	// grid cell shard by shard, and each one matches the single-node
	// grid. (The registry only reports Partial while a job is still
	// running, so the terminal HTTP status above no longer carries it.)
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	task, err := httpx.JobFactory(c.newRobustnessTask, c.newSweepTask)(api.JobKindSweep, spec)
	if err != nil {
		t.Fatal(err)
	}
	progressEvents := 0
	if _, err := task.Run(context.Background(), func(typ string, _ any) {
		if typ == api.JobEventProgress {
			progressEvents++
		}
	}); err != nil {
		t.Fatal(err)
	}
	cells, ok := task.(*fleetSweepTask).Partial().([]api.JobCell)
	if !ok || len(cells) != len(req.Networks)*48 {
		t.Fatalf("partial has %d cells, want %d", len(cells), len(req.Networks)*48)
	}
	for _, cell := range cells {
		if want := want.Results[cell.Network][cell.Index]; !reflect.DeepEqual(cell.Result, want) {
			t.Fatalf("cell %s[%d] differs from the single-node grid", cell.Network, cell.Index)
		}
	}
	if progressEvents == 0 {
		t.Fatal("task emitted no progress events")
	}

	// A network listed twice counts twice, as on a worker — 8/8 over 4
	// points — while results and partial cells list it once.
	dup := api.SweepRequest{Networks: []string{"LeNet", "LeNet"}, Designs: []string{"OO"}, Lanes: []int{2, 4}, Bits: []int{4, 8}}
	var runs [2]api.JobStatusResponse
	for i, base := range []string{workers[0], ts.URL} {
		cl := api.NewClient(base, nil)
		h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindSweep, Sweep: &dup})
		if err != nil {
			t.Fatal(err)
		}
		if runs[i] = waitJob(t, cl, h.ID); runs[i].State != api.JobStateSucceeded {
			t.Fatalf("repeated-network job on %s: %s %s", base, runs[i].State, runs[i].Error)
		}
	}
	if w, co := runs[0], runs[1]; co.Done != w.Done || co.Total != w.Total || w.Done != 8 || w.Total != 8 {
		t.Fatalf("repeated-network done/total: coordinator %d/%d, worker %d/%d, want 8/8", co.Done, co.Total, w.Done, w.Total)
	}
	if !bytes.Equal(compactJSON(t, runs[1].Result), compactJSON(t, runs[0].Result)) {
		t.Fatal("repeated-network job result differs from the worker's")
	}
	spec, err = json.Marshal(dup)
	if err != nil {
		t.Fatal(err)
	}
	if task, err = httpx.JobFactory(c.newRobustnessTask, c.newSweepTask)(api.JobKindSweep, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Run(context.Background(), func(string, any) {}); err != nil {
		t.Fatal(err)
	}
	cells = task.(*fleetSweepTask).Partial().([]api.JobCell)
	if len(cells) != 4 {
		t.Fatalf("repeated-network partial has %d cells, want 4 (the network once)", len(cells))
	}
	for i, cell := range cells {
		if cell.Network != "LeNet" || cell.Index != i {
			t.Fatalf("partial cell %d is %s[%d], want LeNet[%d]", i, cell.Network, cell.Index, i)
		}
	}
}

// TestValidationMatchesWorker: a request a worker would reject is
// rejected by the coordinator with the same status and body, without
// touching any worker — on the synchronous routes and on POST /v1/jobs
// alike, engine-level checks (unknown network, precision, spec)
// included.
func TestValidationMatchesWorker(t *testing.T) {
	workers := startWorkers(t, 1)
	// Unroutable on purpose; the prober is held off so the worker stays
	// nominally healthy and the synchronous routes reach validation.
	c := newTestCoordinator(t, Options{Workers: []string{"127.0.0.1:1"}, ProbeInterval: time.Hour})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	bad := api.SweepRequest{Networks: []string{"LeNet"}}
	wantStatus, want := postJSON(t, workers[0]+"/v1/sweep", bad)
	status, got := postJSON(t, ts.URL+"/v1/sweep", bad)
	if status != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("fleet rejection = %d %s, want %d %s", status, got, wantStatus, want)
	}

	// Strict decoding: unknown fields and anything after the JSON value
	// are rejected with the worker's exact 400 bad_request envelope.
	post := func(url, body string) (int, []byte) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	for _, tc := range []struct{ route, body string }{
		{"/v1/evaluate", `{"network":"LeNet","design":"OO","lane":4,"bits":8}`},
		{"/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8} trailing-garbage`},
		{"/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8}{"network":"Nope"}`},
		{"/v1/sweep", `{"networks":["LeNet"],"lanes":[4],"bits":[8]} []`},
		{"/v1/jobs", `{"kind":"sweep","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}} {}`},
	} {
		wantStatus, want := post(workers[0]+tc.route, tc.body)
		status, got := post(ts.URL+tc.route, tc.body)
		if wantStatus != http.StatusBadRequest || !bytes.Contains(want, []byte(`"bad_request"`)) {
			t.Errorf("worker %s %s = %d %s, want 400 bad_request", tc.route, tc.body, wantStatus, want)
		}
		if status != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("fleet %s %s = %d %s, want %d %s", tc.route, tc.body, status, got, wantStatus, want)
		}
	}

	// Engine-level rejections. The synchronous routes repeat each case:
	// a coordinator that fanned the request out would answer with
	// whichever shard failed first.
	lenet := func(mut func(*api.RobustnessRequest)) api.RobustnessRequest {
		req := api.RobustnessRequest{Network: "LeNet", Design: "OO", Sigmas: []float64{0.01, 0.02}, Trials: 4}
		mut(&req)
		return req
	}
	for _, tc := range []struct {
		name string
		job  api.JobRequest
	}{
		{"unknown sweep network", api.JobRequest{Kind: api.JobKindSweep, Sweep: &api.SweepRequest{
			Networks: []string{"nope"}, Lanes: []int{4}, Bits: []int{8}}}},
		{"bad sweep precision", api.JobRequest{Kind: api.JobKindSweep, Sweep: &api.SweepRequest{
			Networks: []string{"LeNet"}, Lanes: []int{4, 8}, Bits: []int{4, 999}}}},
		{"unknown robustness network", api.JobRequest{Kind: api.JobKindRobustness, Robustness: ptr(lenet(func(r *api.RobustnessRequest) { r.Network = "nope" }))}},
		{"zero trials", api.JobRequest{Kind: api.JobKindRobustness, Robustness: ptr(lenet(func(r *api.RobustnessRequest) { r.Trials = 0 }))}},
		{"negative sigma", api.JobRequest{Kind: api.JobKindRobustness, Robustness: ptr(lenet(func(r *api.RobustnessRequest) { r.Sigmas = []float64{-1} }))}},
		{"empty sigma axis", api.JobRequest{Kind: api.JobKindRobustness, Robustness: ptr(lenet(func(r *api.RobustnessRequest) { r.Sigmas = nil }))}},
	} {
		route, body := "/v1/sweep", any(tc.job.Sweep)
		if tc.job.Kind == api.JobKindRobustness {
			route, body = "/v1/robustness", tc.job.Robustness
		}
		wantStatus, want := postJSON(t, workers[0]+route, body)
		if wantStatus/100 != 4 {
			t.Fatalf("%s: worker %s = %d %s, want a 4xx rejection", tc.name, route, wantStatus, want)
		}
		for i := 0; i < 50; i++ {
			if status, got := postJSON(t, ts.URL+route, body); status != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("%s: fleet %s try %d = %d %s, want %d %s", tc.name, route, i, status, got, wantStatus, want)
			}
		}
		wantStatus, want = postJSON(t, workers[0]+"/v1/jobs", tc.job)
		if wantStatus/100 != 4 {
			t.Fatalf("%s: worker /v1/jobs = %d %s, want a 4xx rejection", tc.name, wantStatus, want)
		}
		if status, got := postJSON(t, ts.URL+"/v1/jobs", tc.job); status != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("%s: fleet /v1/jobs = %d %s, want %d %s", tc.name, status, got, wantStatus, want)
		}
	}
}

func ptr[T any](v T) *T { return &v }
