package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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

// compactJSON re-encodes b without whitespace. A coordinator job's
// Result is json.Marshal of the merged response (compact), while the
// synchronous route indents — compacting the sync body makes the two
// byte-comparable without losing the float64 round-trip guarantee.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact: %v (body %.200s)", err, b)
	}
	return buf.Bytes()
}

// waitJob polls the coordinator until the job reaches a terminal state.
func waitJob(t *testing.T, cl *api.Client, id string) api.JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case api.JobStateSucceeded, api.JobStateFailed, api.JobStateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (%d/%d)", st.State, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// partialPoints counts the σ points a running robustness job has landed.
func partialPoints(t *testing.T, cl *api.Client, id string) int {
	t.Helper()
	st, err := cl.Job(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Partial) == 0 {
		return 0
	}
	var pts []api.JobPoint
	if err := json.Unmarshal(st.Partial, &pts); err != nil {
		t.Fatal(err)
	}
	return len(pts)
}

// robustness10 is a 10-point σ axis with a protection curve — enough
// per-point work (at the given trial count) that a kill lands mid-job.
func robustness10(trials int) api.RobustnessRequest {
	return api.RobustnessRequest{
		Network: "LeNet", Design: "OO",
		Sigmas:     []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
		Trials:     trials,
		Seed:       11,
		Protection: &api.ProtectionSpec{Scheme: "parity"},
	}
}

// TestChaosFaultClassesByteIdentical drives the synchronous fan-out
// routes through the seeded chaos transport, one fault class per
// subtest, and requires the merged bodies to stay byte-identical to a
// single node while the retry budget stays bounded.
func TestChaosFaultClassesByteIdentical(t *testing.T) {
	workers := startWorkers(t, 2)
	sweepReq := sweep48()
	robReq := api.RobustnessRequest{
		Network: "LeNet", Design: "OO",
		Sigmas:     []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07},
		Trials:     6,
		Seed:       7,
		Protection: &api.ProtectionSpec{Scheme: "parity"},
	}
	status, wantSweep := postJSON(t, workers[0]+"/v1/sweep", sweepReq)
	if status != http.StatusOK {
		t.Fatalf("single node sweep: status %d: %s", status, wantSweep)
	}
	status, wantRob := postJSON(t, workers[0]+"/v1/robustness", robReq)
	if status != http.StatusOK {
		t.Fatalf("single node robustness: status %d: %s", status, wantRob)
	}

	const maxAttempts = 8
	cases := []struct {
		name  string
		cfg   ChaosConfig
		fired func(ChaosCounts) int64
	}{
		{"refuse", ChaosConfig{Seed: 7, RefuseRate: 0.3}, func(c ChaosCounts) int64 { return c.Refused }},
		{"latency", ChaosConfig{Seed: 7, LatencyRate: 0.5, Latency: 2 * time.Millisecond}, func(c ChaosCounts) int64 { return c.Delayed }},
		{"error-5xx", ChaosConfig{Seed: 7, Err5xxRate: 0.3}, func(c ChaosCounts) int64 { return c.Err5xx }},
		{"error-5xx-burst", ChaosConfig{Seed: 7, Err5xxRate: 0.15, Err5xxBurst: 3}, func(c ChaosCounts) int64 { return c.Err5xx }},
		{"truncate", ChaosConfig{Seed: 7, TruncateRate: 0.3}, func(c ChaosCounts) int64 { return c.Truncated }},
		{"corrupt", ChaosConfig{Seed: 7, CorruptRate: 0.3}, func(c ChaosCounts) int64 { return c.Corrupted }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := NewChaosTransport(tc.cfg, nil)
			c := newTestCoordinator(t, Options{
				Workers:       workers,
				HTTPClient:    &http.Client{Transport: ct},
				MaxAttempts:   maxAttempts,
				RetryMaxDelay: 5 * time.Millisecond,
				ProbeInterval: time.Hour, // probes must not consume fault draws or evict
			})
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()

			status, got := postJSON(t, ts.URL+"/v1/sweep", sweepReq)
			if status != http.StatusOK {
				t.Fatalf("sweep under chaos: status %d: %.300s", status, got)
			}
			if !bytes.Equal(got, wantSweep) {
				t.Fatal("sweep body differs from single node under chaos")
			}
			status, got = postJSON(t, ts.URL+"/v1/robustness", robReq)
			if status != http.StatusOK {
				t.Fatalf("robustness under chaos: status %d: %.300s", status, got)
			}
			if !bytes.Equal(got, wantRob) {
				t.Fatal("robustness body differs from single node under chaos")
			}

			if n := tc.fired(ct.Counts()); n == 0 {
				t.Fatalf("fault class never fired: %+v", ct.Counts())
			}
			// Two fan-outs of healthy×ShardsPerWorker arms, each arm bounded
			// by the attempt budget: retries past that bound would mean the
			// executor loops beyond its contract.
			maxRetries := int64(2*2*DefaultShardsPerWorker) * int64(maxAttempts-1)
			if r := c.metrics.retries.Load(); r > maxRetries {
				t.Fatalf("retries = %d, want <= %d", r, maxRetries)
			}
		})
	}
}

// TestChaosSSECutRobustnessJob severs the coordinator→worker job event
// streams mid-event, repeatedly. The Last-Event-ID reconnect plus the
// partial poll must still converge on the exact single-node payload.
func TestChaosSSECutRobustnessJob(t *testing.T) {
	workers := startWorkers(t, 2)
	req := robustness10(512)
	status, want := postJSON(t, workers[0]+"/v1/robustness", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	ct := NewChaosTransport(ChaosConfig{Seed: 3, SSECutRate: 0.9, SSECutAfter: 2048}, nil)
	c := newTestCoordinator(t, Options{
		Workers:       workers,
		HTTPClient:    &http.Client{Transport: ct},
		RetryMaxDelay: 5 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &req})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, cl, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("job failed under SSE cuts: %s", st.Error)
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, want)) {
		t.Fatal("job result differs from single node under SSE cuts")
	}
	if ct.Counts().SSECut == 0 {
		t.Fatalf("no SSE stream was ever cut: %+v", ct.Counts())
	}
}

// TestRobustnessJobSalvageOnWorkerDeath kills the only worker mid-job
// once at least one σ point has streamed back, then admits a fresh
// worker. The job must finish with the single-node payload, keeping
// the dead worker's landed points and re-running strictly fewer units
// than the σ axis holds.
func TestRobustnessJobSalvageOnWorkerDeath(t *testing.T) {
	spare := startWorker(t) // the replacement, and the single-node oracle
	req := robustness10(2048)
	status, want := postJSON(t, spare.URL+"/v1/robustness", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	// The dying worker is a real jobs-enabled pixeld behind a kill
	// switch: once killed, every connection (jobs, polls, probes) drops
	// cold, which is a SIGKILL's view from the wire.
	dyingSrv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			return pixel.RobustnessContext(ctx, spec)
		}),
		Jobs:   &jobs.RegistryOptions{MaxRunning: 8},
		Logger: discardLogger(),
	})
	inner := dyingSrv.Handler()
	var killed atomic.Bool
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		dying.Close()
		dyingSrv.Close()
	})

	c := newTestCoordinator(t, Options{
		Workers:            []string{dying.URL},
		ProbeInterval:      20 * time.Millisecond,
		ProbeFailThreshold: 2,
		RetryMaxDelay:      10 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &req})
	if err != nil {
		t.Fatal(err)
	}
	total := len(req.Sigmas)
	deadline := time.Now().Add(60 * time.Second)
	landed := 0
	for landed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no σ point ever landed before the kill")
		}
		landed = partialPoints(t, cl, h.ID)
		time.Sleep(time.Millisecond)
	}
	if landed >= total {
		t.Fatalf("job finished (%d/%d points) before the kill window", landed, total)
	}
	killed.Store(true)
	dying.CloseClientConnections()
	if err := c.AddWorker(spare.URL); err != nil {
		t.Fatal(err)
	}

	st := waitJob(t, cl, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("job did not survive the worker death: %s", st.Error)
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, want)) {
		t.Fatal("salvaged job result differs from single node")
	}
	if n := c.metrics.salvageRounds.Load(); n == 0 {
		t.Fatal("no salvage round ran though the worker died mid-job")
	}
	if n := c.metrics.salvagedUnits.Load(); n == 0 {
		t.Fatal("no σ point was salvaged from the dead worker's stream")
	}
	replanned := c.metrics.replannedUnits.Load()
	if replanned < 1 || replanned >= int64(total) {
		t.Fatalf("replanned %d units, want in [1, %d): salvage must re-run strictly fewer than the axis", replanned, total)
	}
	if n := c.metrics.workersAdded.Load(); n != 1 {
		t.Fatalf("workersAdded = %d, want 1", n)
	}
}

// TestCoordinatorRestartResumesFleetJob restarts the coordinator
// process (Close + a fresh Coordinator over the same jobs Manager) while a
// fleet robustness job is mid-flight. The second coordinator must
// re-adopt the job, re-dispatch only the missing σ points, finish with
// the single-node payload, and keep the SSE stream seq-continuous
// across the restart for a Last-Event-ID resume.
func TestCoordinatorRestartResumesFleetJob(t *testing.T) {
	workers := startWorkers(t, 2)
	req := robustness10(3072)
	status, want := postJSON(t, workers[0]+"/v1/robustness", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	mgr, err := jobs.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mkOpts := func() Options {
		return Options{
			Workers:       workers,
			Jobs:          jobs.RegistryOptions{Manager: mgr},
			ProbeInterval: 50 * time.Millisecond,
			RetryMaxDelay: 10 * time.Millisecond,
		}
	}

	c1 := newTestCoordinator(t, mkOpts())
	ts1 := httptest.NewServer(c1.Handler())
	cl1 := api.NewClient(ts1.URL, nil)
	h, err := cl1.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &req})
	if err != nil {
		t.Fatal(err)
	}

	// Follow the event stream until a σ point lands: that is the proof
	// the job is mid-flight, and its seq is the Last-Event-ID a client
	// would resume with after the restart.
	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	es, err := cl1.JobEvents(sctx, h.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq int64 = -1
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("stream died before a point landed: %v", err)
		}
		lastSeq = ev.Seq
		if ev.Type == api.JobEventPoint {
			break
		}
		if ev.Terminal() {
			t.Fatalf("job finished (event %q) before the restart window", ev.Type)
		}
	}
	es.Close()
	scancel()

	// "SIGKILL" the coordinator: Close flushes the final checkpoint and
	// leaves the persisted state running; the HTTP listener goes away.
	c1.Close()
	ts1.Close()

	c2 := newTestCoordinator(t, mkOpts())
	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	cl2 := api.NewClient(ts2.URL, nil)

	st := waitJob(t, cl2, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("re-adopted job failed: %s", st.Error)
	}
	if !st.Adopted {
		t.Fatal("job status does not mark the re-adoption")
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, want)) {
		t.Fatal("resumed job result differs from single node")
	}
	if n := c2.metrics.salvagedUnits.Load(); n == 0 {
		t.Fatal("restart restored no σ points from the checkpoint")
	}
	if n := c2.metrics.salvageRounds.Load(); n == 0 {
		t.Fatal("no salvage round ran on the restarted coordinator")
	}
	total := int64(len(req.Sigmas))
	replanned := c2.metrics.replannedUnits.Load()
	if replanned < 1 || replanned >= total {
		t.Fatalf("replanned %d units after restart, want in [1, %d)", replanned, total)
	}

	// Resume the event stream across the restart with the pre-restart
	// Last-Event-ID: the replay must start past it — first with the
	// "adopted" marker — and stay strictly monotone to the terminal.
	es2, err := cl2.JobEvents(context.Background(), h.ID, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	first := true
	prev := lastSeq
	for {
		ev, err := es2.Next()
		if err != nil {
			t.Fatalf("resumed stream died: %v", err)
		}
		if ev.Seq <= prev {
			t.Fatalf("event seq %d not past %d: the restarted log broke monotonicity", ev.Seq, prev)
		}
		prev = ev.Seq
		if first {
			if ev.Type != api.JobEventAdopted {
				t.Fatalf("first resumed event is %q, want %q", ev.Type, api.JobEventAdopted)
			}
			first = false
		}
		if ev.Terminal() {
			if ev.Type != api.JobEventSucceeded {
				t.Fatalf("terminal event %q, want %q", ev.Type, api.JobEventSucceeded)
			}
			break
		}
	}
}

// TestSweepJobSalvageFromCheckpoint drives a sweep task restored from a
// half-complete checkpoint (white-box, the way Recover does) and
// requires it to re-dispatch exactly the missing cells — exercising the
// per-(design,lane) bit-subset re-planner — and still merge the exact
// single-node grid.
func TestSweepJobSalvageFromCheckpoint(t *testing.T) {
	workers := startWorkers(t, 2)
	req := sweep48()
	status, body := postJSON(t, workers[0]+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, body)
	}
	var want api.SweepResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, Options{Workers: workers})
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	task, err := httpx.JobFactory(c.newRobustnessTask, c.newSweepTask)(api.JobKindSweep, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint: every even grid row of both networks already priced.
	// The odd rows are the holes — every (design, lane) group keeps a
	// strict bit subset, so the re-planner cannot take the full-grid
	// path.
	var cells []api.JobCell
	for _, n := range req.Networks {
		for i, res := range want.Results[n] {
			if i%2 == 0 {
				cells = append(cells, api.JobCell{Network: n, Index: i, Result: res})
			}
		}
	}
	total := want.Points * len(req.Networks)
	ck, err := json.Marshal(fleetJobCkpt{Kind: api.JobKindSweep, Total: total, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Restore(ck); err != nil {
		t.Fatal(err)
	}

	res, err := task.Run(context.Background(), func(string, any) {})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.(api.SweepResponse)
	if !ok {
		t.Fatalf("task returned %T, want api.SweepResponse", res)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("salvaged sweep differs from the single-node grid")
	}

	if n := c.metrics.salvagedUnits.Load(); n != int64(len(cells)) {
		t.Fatalf("salvagedUnits = %d, want %d (the checkpointed cells)", n, len(cells))
	}
	if n := c.metrics.salvageRounds.Load(); n == 0 {
		t.Fatal("restored task ran no salvage round")
	}
	missing := int64(total - len(cells))
	if n := c.metrics.replannedUnits.Load(); n != missing {
		t.Fatalf("replannedUnits = %d, want exactly the %d missing cells", n, missing)
	}
}

// TestMembershipAddRemove exercises the runtime membership API over
// HTTP: list, admit, duplicate-conflict, retire, not-found and
// last-member refusals — with a byte-identity check after the ring
// grows and the counters on /metrics.
func TestMembershipAddRemove(t *testing.T) {
	workers := startWorkers(t, 2)
	req := sweep48()
	status, want := postJSON(t, workers[0]+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	c := newTestCoordinator(t, Options{Workers: workers[:1]})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)
	ctx := context.Background()

	roster, err := cl.FleetWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roster.Workers) != 1 || roster.Workers[0].Addr != workers[0] ||
		!roster.Workers[0].Healthy || roster.Workers[0].Breaker != "closed" {
		t.Fatalf("initial roster = %+v", roster.Workers)
	}

	roster, err = cl.AddFleetWorker(ctx, workers[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(roster.Workers) != 2 {
		t.Fatalf("roster after add = %+v", roster.Workers)
	}
	wantHTTPError(t, "duplicate add", func() error {
		_, err := cl.AddFleetWorker(ctx, workers[1])
		return err
	}, http.StatusConflict, "conflict")

	status, got := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep after add: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep body differs from single node after membership change")
	}

	roster, err = cl.RemoveFleetWorker(ctx, workers[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(roster.Workers) != 1 {
		t.Fatalf("roster after remove = %+v", roster.Workers)
	}
	wantHTTPError(t, "remove missing", func() error {
		_, err := cl.RemoveFleetWorker(ctx, workers[1])
		return err
	}, http.StatusNotFound, "not_found")
	wantHTTPError(t, "remove last", func() error {
		_, err := cl.RemoveFleetWorker(ctx, workers[0])
		return err
	}, http.StatusConflict, "conflict")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"pixelfleet_workers_added_total 1",
		"pixelfleet_workers_removed_total 1",
		"pixelfleet_workers 1",
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics output missing %q", line)
		}
	}
}

// wantHTTPError asserts fn fails with the given status and wire code.
func wantHTTPError(t *testing.T, what string, fn func() error, status int, code string) {
	t.Helper()
	err := fn()
	if err == nil {
		t.Fatalf("%s: no error, want %d %q", what, status, code)
	}
	he, ok := err.(*api.HTTPError)
	if !ok {
		t.Fatalf("%s: error %v (%T), want *api.HTTPError", what, err, err)
	}
	if he.Status != status || he.Code != code {
		t.Fatalf("%s: got %d %q, want %d %q", what, he.Status, he.Code, status, code)
	}
}

// TestNoHealthyWorkersRefusalAndJobParking darkens the whole fleet:
// synchronous fan-out routes must answer 503 no_healthy_workers with a
// Retry-After hint, while an already-submitted fleet job parks instead
// of failing and completes once a worker comes back.
func TestNoHealthyWorkersRefusalAndJobParking(t *testing.T) {
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			return pixel.RobustnessContext(ctx, spec)
		}),
		Jobs:   &jobs.RegistryOptions{MaxRunning: 8},
		Logger: discardLogger(),
	})
	inner := srv.Handler()
	var dark atomic.Bool
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && dark.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"draining"}`+"\n")
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		wts.Close()
		srv.Close()
	})

	req := sweep48()
	status, want := postJSON(t, wts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single node: status %d: %s", status, want)
	}

	c := newTestCoordinator(t, Options{
		Workers:       []string{wts.URL},
		ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	dark.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for c.healthyCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker was never evicted")
		}
		time.Sleep(time.Millisecond)
	}

	// Synchronous routes refuse fast with a retry hint.
	syncCases := []struct {
		route string
		body  any
	}{
		{"/v1/sweep", req},
		{"/v1/evaluate", api.EvaluateRequest{Network: "LeNet", Design: "OO", Lanes: 4, Bits: 4}},
	}
	for _, sc := range syncCases {
		route := sc.route
		body, err := json.Marshal(sc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on a dark fleet: status %d: %s", route, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("%s Retry-After = %q, want \"1\"", route, got)
		}
		if !strings.Contains(string(raw), `"no_healthy_workers"`) {
			t.Fatalf("%s error body missing no_healthy_workers code: %s", route, raw)
		}
	}

	// A fleet job parks rather than failing.
	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindSweep, Sweep: &req})
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for c.metrics.jobsParked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never parked on the dark fleet")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := cl.Job(context.Background(), h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobStateRunning && st.State != api.JobStateQueued {
		t.Fatalf("parked job state = %q, want running/queued", st.State)
	}

	// Light comes back: the parked job finishes byte-exact.
	dark.Store(false)
	st = waitJob(t, cl, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("parked job failed after revival: %s", st.Error)
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, want)) {
		t.Fatal("parked job result differs from single node")
	}
}

// TestJobCancellationPropagatesToWorkers cancels a fleet job on the
// coordinator and requires the cancellation to reach the worker's job
// registry as a DELETE on the dispatched shard job. The worker holds
// every job submission until the coordinator DELETE has been sent, so
// the cancellation always lands while the shard's create call is still
// in flight — the window in which the worker accepts a job whose ID the
// coordinator would otherwise never learn.
func TestJobCancellationPropagatesToWorkers(t *testing.T) {
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
			return pixel.RobustnessContext(ctx, spec)
		}),
		Jobs:   &jobs.RegistryOptions{MaxRunning: 8},
		Logger: discardLogger(),
	})
	inner := srv.Handler()
	var posts, deletes atomic.Int64
	cancelled := make(chan struct{})
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			posts.Add(1)
			<-cancelled
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			deletes.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		wts.Close()
		srv.Close()
	})

	c := newTestCoordinator(t, Options{Workers: []string{wts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	req := robustness10(4096) // slow enough that the cancel lands mid-run
	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &req})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for posts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard job was ever dispatched to the worker")
		}
		time.Sleep(time.Millisecond)
	}
	err = cl.DeleteJob(context.Background(), h.ID)
	close(cancelled)
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for deletes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancellation never reached the worker's job registry")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Job(context.Background(), h.ID); err == nil {
		t.Fatal("cancelled job is still queryable on the coordinator")
	} else if he, ok := err.(*api.HTTPError); !ok || he.Status != http.StatusNotFound {
		t.Fatalf("cancelled job lookup = %v, want 404", err)
	}
}

// TestCoordinatorJobSyncFallback runs fleet jobs against workers with
// no job API at all: every shard dispatch answers 501/404 and the task
// must fall back to the synchronous shard path, still producing the
// single-node payload without any salvage round.
func TestCoordinatorJobSyncFallback(t *testing.T) {
	w1 := httptest.NewServer(newWorkerHandler())
	defer w1.Close()
	w2 := httptest.NewServer(newWorkerHandler())
	defer w2.Close()

	sweepReq := sweep48()
	status, wantSweep := postJSON(t, w1.URL+"/v1/sweep", sweepReq)
	if status != http.StatusOK {
		t.Fatalf("single node sweep: status %d", status)
	}
	robReq := robustness10(6)
	status, wantRob := postJSON(t, w1.URL+"/v1/robustness", robReq)
	if status != http.StatusOK {
		t.Fatalf("single node robustness: status %d", status)
	}

	c := newTestCoordinator(t, Options{Workers: []string{w1.URL, w2.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl := api.NewClient(ts.URL, nil)

	h, err := cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindSweep, Sweep: &sweepReq})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, cl, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("sweep job via sync fallback failed: %s", st.Error)
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, wantSweep)) {
		t.Fatal("sweep job result differs from single node via sync fallback")
	}

	h, err = cl.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &robReq})
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, cl, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("robustness job via sync fallback failed: %s", st.Error)
	}
	if !bytes.Equal(compactJSON(t, st.Result), compactJSON(t, wantRob)) {
		t.Fatal("robustness job result differs from single node via sync fallback")
	}

	if n := c.metrics.salvageRounds.Load(); n != 0 {
		t.Fatalf("clean fallback runs recorded %d salvage rounds, want 0", n)
	}
}
