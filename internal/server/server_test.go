package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pixel"
	"pixel/api"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// stubEngine is a controllable Evaluator: it can block evaluations
// until released (to pin flights open) and records the context error
// it was aborted with.
type stubEngine struct {
	evalCalls  atomic.Int64
	sweepCalls atomic.Int64
	entered    chan struct{} // one receive per engine entry, if non-nil
	unblock    chan struct{} // evaluations park here until closed, if non-nil
	ctxErr     chan error    // receives the ctx error when a run is aborted
}

func (s *stubEngine) park(ctx context.Context) error {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.unblock == nil {
		return nil
	}
	select {
	case <-s.unblock:
		return nil
	case <-ctx.Done():
		if s.ctxErr != nil {
			s.ctxErr <- ctx.Err()
		}
		return ctx.Err()
	}
}

func (s *stubEngine) EvaluateContext(ctx context.Context, network string, p pixel.Point) (pixel.Result, error) {
	s.evalCalls.Add(1)
	if err := s.park(ctx); err != nil {
		return pixel.Result{}, err
	}
	return pixel.Result{Network: network, Design: p.Design, Lanes: p.Lanes, Bits: p.Bits, EnergyJ: 1}, nil
}

func (s *stubEngine) SweepNetworks(ctx context.Context, networks []string, points []pixel.Point, opts *pixel.SweepOptions) (map[string][]pixel.Result, error) {
	s.sweepCalls.Add(1)
	if err := s.park(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]pixel.Result, len(networks))
	for _, n := range networks {
		out[n] = make([]pixel.Result, len(points))
	}
	return out, nil
}

func (s *stubEngine) CostCalls() int64 { return s.evalCalls.Load() }
func (s *stubEngine) CacheHits() int64 { return 0 }

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// hasSample reports whether a /metrics scrape of base holds the exact
// sample line.
func hasSample(t *testing.T, base, sample string) bool {
	t.Helper()
	_, body := getBody(t, base+"/metrics")
	return strings.Contains(body, "\n"+sample+"\n")
}

const evalBody = `{"network":"AlexNet","design":"OO","lanes":4,"bits":16}`

// TestEvaluateCoalescing proves two concurrent identical requests
// perform one engine computation: the follower is held until it has
// demonstrably joined the leader's flight, then both complete off a
// single engine call.
func TestEvaluateCoalescing(t *testing.T) {
	stub := &stubEngine{
		entered: make(chan struct{}, 2),
		unblock: make(chan struct{}),
	}
	srv := New(Config{Engine: stub, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/evaluate", evalBody)
			replies <- reply{resp.StatusCode, body}
		}()
	}

	<-stub.entered // leader is inside the engine
	key := "AlexNet|OO/L4/B16"
	waitFor(t, "follower to join the flight", func() bool { return srv.evalFlights.waiters(key) == 2 })
	close(stub.unblock)

	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("status = %d, body %s", r.status, r.body)
		}
		if !strings.Contains(r.body, `"network": "AlexNet"`) {
			t.Errorf("unexpected body: %s", r.body)
		}
	}
	if got := stub.evalCalls.Load(); got != 1 {
		t.Errorf("engine computations = %d, want 1 (coalesced)", got)
	}
	if got := srv.metrics.coalesced.Load(); got != 1 {
		t.Errorf("coalesced counter = %d, want 1", got)
	}
}

// TestEvaluateShedding proves requests beyond MaxInFlight are shed
// with 429 + Retry-After within the queue timeout, and that the
// server recovers once the slot frees.
func TestEvaluateShedding(t *testing.T) {
	stub := &stubEngine{
		entered: make(chan struct{}, 1),
		unblock: make(chan struct{}),
	}
	srv := New(Config{
		Engine:       stub,
		MaxInFlight:  1,
		QueueTimeout: 30 * time.Millisecond,
		Logger:       discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/evaluate", evalBody)
		first <- resp.StatusCode
	}()
	<-stub.entered // the slot is held

	// A *different* point (no coalescing possible) must be shed.
	resp, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"network":"AlexNet","design":"OO","lanes":8,"bits":16}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s; want 429", resp.StatusCode, body)
	}
	// The hint is ceil(max(QueueTimeout, 1s)): 30ms rounds up to 1.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var envelope struct {
		Error struct {
			Code       string `json:"code"`
			Message    string `json:"message"`
			RetryAfter int    `json:"retry_after"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &envelope); err != nil || envelope.Error.Code != "overloaded" || envelope.Error.Message != "server: overloaded, request shed" {
		t.Errorf("error body %q (err %v), want code overloaded envelope", body, err)
	}
	if fmt.Sprint(envelope.Error.RetryAfter) != resp.Header.Get("Retry-After") {
		t.Errorf("envelope retry_after %d != Retry-After header %q",
			envelope.Error.RetryAfter, resp.Header.Get("Retry-After"))
	}
	if got := srv.metrics.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(stub.unblock)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("blocked request finished with %d", status)
	}
	// The freed slot admits new work.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate",
		`{"network":"AlexNet","design":"OO","lanes":8,"bits":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d, body %s", resp.StatusCode, body)
	}
}

// TestSweepClientCancelAbortsEngine proves a cancelled client context
// reaches the engine as context cancellation.
func TestSweepClientCancelAbortsEngine(t *testing.T) {
	stub := &stubEngine{
		entered: make(chan struct{}, 1),
		unblock: make(chan struct{}), // never closed: only ctx can end the run
		ctxErr:  make(chan error, 1),
	}
	srv := New(Config{Engine: stub, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"networks":["AlexNet"],"lanes":[2,4],"bits":[8]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	<-stub.entered // the sweep is running
	cancel()       // client hangs up

	select {
	case err := <-stub.ctxErr:
		if err != context.Canceled {
			t.Errorf("engine ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine never saw the cancellation")
	}
	if err := <-clientErr; err == nil {
		t.Error("client request unexpectedly succeeded")
	}
	waitFor(t, "499 recorded", func() bool {
		return hasSample(t, ts.URL, `pixeld_requests_total{route="/v1/sweep",code="499"} 1`)
	})
}

// TestSentinelErrorMapping drives the real engine through every
// documented error class and asserts the HTTP status each maps to.
func TestSentinelErrorMapping(t *testing.T) {
	srv := New(Config{Engine: pixel.NewEngine(pixel.EngineOptions{}), Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"unknown network", "/v1/evaluate", `{"network":"NopeNet","design":"OO","lanes":4,"bits":16}`, 404, "unknown_network"},
		{"unknown design", "/v1/evaluate", `{"network":"AlexNet","design":"XX","lanes":4,"bits":16}`, 400, "unknown_design"},
		{"bad precision lanes", "/v1/evaluate", `{"network":"AlexNet","design":"OO","lanes":0,"bits":16}`, 400, "bad_precision"},
		{"bad precision bits", "/v1/evaluate", `{"network":"AlexNet","design":"OO","lanes":4,"bits":1000}`, 400, "bad_precision"},
		{"malformed body", "/v1/evaluate", `{"network":`, 400, "bad_request"},
		{"unknown field", "/v1/evaluate", `{"network":"AlexNet","design":"OO","lane":4,"bits":16}`, 400, "bad_request"},
		{"trailing garbage", "/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8} trailing-garbage`, 400, "bad_request"},
		{"trailing second value", "/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8}{"network":"Nope"}`, 400, "bad_request"},
		{"sweep trailing value", "/v1/sweep", `{"networks":["LeNet"],"lanes":[4],"bits":[8]} []`, 400, "bad_request"},
		{"sweep no networks", "/v1/sweep", `{"networks":[],"lanes":[4],"bits":[8]}`, 400, "bad_request"},
		{"sweep empty axis", "/v1/sweep", `{"networks":["AlexNet"],"lanes":[],"bits":[8]}`, 400, "bad_request"},
		{"sweep unknown network", "/v1/sweep", `{"networks":["NopeNet"],"lanes":[4],"bits":[8]}`, 404, "unknown_network"},
		{"sweep bad point", "/v1/sweep", `{"networks":["AlexNet"],"lanes":[4],"bits":[1000]}`, 400, "bad_precision"},
		{"map bad grid", "/v1/map", `{"network":"LeNet","design":"OO","lanes":16,"bits":8,"rows":4,"cols":16}`, 400, "bad_grid"},
		{"map unknown network", "/v1/map", `{"network":"NopeNet","design":"OO","lanes":4,"bits":8,"rows":4,"cols":4}`, 404, "unknown_network"},
		{"robustness unconfigured", "/v1/robustness", `{"network":"lenet","design":"OO","sigmas":[0.5],"trials":4}`, 501, "not_implemented"},
		{"infer unconfigured", "/v1/infer", `{"network":"tiny","images":[[1]]}`, 501, "not_implemented"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, body %s; want %d", resp.StatusCode, body, tc.status)
			}
			var envelope struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &envelope); err != nil {
				t.Fatalf("non-JSON error body %q: %v", body, err)
			}
			if envelope.Error.Code != tc.code || envelope.Error.Message == "" {
				t.Errorf("error envelope = %+v, want code %q with message", envelope.Error, tc.code)
			}
		})
	}

	// Trailing whitespace is not trailing data: json.Encoder output
	// ends in a newline.
	if resp, body := postJSON(t, ts.URL+"/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8}`+"\n \t\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("evaluate with trailing whitespace = %d: %s", resp.StatusCode, body)
	}

	// Method mismatches 405 via the mux patterns.
	resp, _ := getBody(t, ts.URL+"/v1/evaluate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate = %d, want 405", resp.StatusCode)
	}
}

// TestServeRealEngine exercises the full path against the real sweep
// engine: evaluate twice (second is an LRU hit), a sweep, discovery
// routes, and the /metrics counters the acceptance criteria name.
func TestServeRealEngine(t *testing.T) {
	eng := pixel.NewEngine(pixel.EngineOptions{})
	srv := New(Config{Engine: eng, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Cold evaluate computes; identical repeat is absorbed by the LRU.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", evalBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d, body %s", resp.StatusCode, body)
	}
	var res struct {
		Network  string             `json:"network"`
		Design   string             `json:"design"`
		EnergyJ  float64            `json:"energy_j"`
		EDP      float64            `json:"edp_js"`
		Energy   map[string]float64 `json:"energy_breakdown_j"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Network != "AlexNet" || res.Design != "OO" || res.EnergyJ <= 0 || res.EDP <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
	if len(res.PerLayer) == 0 || len(res.Energy) == 0 {
		t.Errorf("missing per-layer/breakdown detail: %s", body)
	}
	if _, body2 := postJSON(t, ts.URL+"/v1/evaluate", evalBody); body2 != body {
		t.Error("identical evaluate returned different bodies")
	}
	if got := eng.CostCalls(); got != 1 {
		t.Errorf("cost calls = %d, want 1 (repeat served from LRU)", got)
	}
	if got := eng.CacheHits(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// A sweep over 1 design x 2 lanes x 2 bits adds 4 points, one of
	// which (OO/L4/B16) is already cached.
	resp, body = postJSON(t, ts.URL+"/v1/sweep",
		`{"networks":["AlexNet"],"designs":["OO"],"lanes":[2,4],"bits":[8,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d, body %s", resp.StatusCode, body)
	}
	var sweep struct {
		Points  int `json:"points"`
		Results map[string][]struct {
			EDP float64 `json:"edp_js"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Points != 4 || len(sweep.Results["AlexNet"]) != 4 {
		t.Errorf("sweep shape: points=%d results=%d", sweep.Points, len(sweep.Results["AlexNet"]))
	}
	for _, r := range sweep.Results["AlexNet"] {
		if r.EDP <= 0 {
			t.Error("sweep row with non-positive EDP")
		}
	}

	// Discovery.
	if _, body := getBody(t, ts.URL+"/v1/networks"); !strings.Contains(body, "AlexNet") {
		t.Errorf("networks body %s", body)
	}
	if _, body := getBody(t, ts.URL+"/v1/designs"); !strings.Contains(body, "OO") {
		t.Errorf("designs body %s", body)
	}

	// The metrics the acceptance criteria name, all non-zero.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`pixeld_requests_total{route="/v1/evaluate",code="200"} 2`,
		`pixeld_requests_total{route="/v1/sweep",code="200"} 1`,
		"pixeld_engine_cost_calls_total 4", // 1 cold evaluate + 3 new sweep points
		"pixeld_engine_cache_hits_total 2", // repeated evaluate + cached sweep point
		"pixeld_shed_total 0",
		"pixeld_coalesced_total 0",
		"pixeld_in_flight 1", // the scrape itself
		`pixeld_request_duration_seconds_count{route="/v1/evaluate"} 2`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestGracefulShutdown proves Serve drains an in-flight request after
// its context is cancelled instead of killing it.
func TestGracefulShutdown(t *testing.T) {
	stub := &stubEngine{
		entered: make(chan struct{}, 1),
		unblock: make(chan struct{}),
	}
	srv := New(Config{Engine: stub, Logger: discardLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln, 5*time.Second) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	status := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, base+"/v1/evaluate", evalBody)
		status <- resp.StatusCode
	}()
	<-stub.entered // request is in flight
	cancel()       // SIGTERM equivalent

	// The listener closes promptly; the in-flight request drains.
	close(stub.unblock)
	if got := <-status; got != http.StatusOK {
		t.Errorf("drained request status = %d, want 200", got)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after shutdown")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	if !srv.core.Draining.Load() {
		t.Error("Serve shut down without flipping the draining flag")
	}
}

// TestHealthzDraining: a draining server answers /healthz with 503 and
// status "draining" — the signal load balancers and the fleet
// coordinator use to stop routing to a worker that is shutting down.
func TestHealthzDraining(t *testing.T) {
	srv := New(Config{Engine: &stubEngine{}, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := api.NewClient(ts.URL, nil)

	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health before drain = %+v, %v; want ok", h, err)
	}

	srv.core.Draining.Store(true)
	h, err = c.Health(context.Background())
	if err != nil || h.Status != "draining" {
		t.Fatalf("Health during drain = %+v, %v; want draining", h, err)
	}
	var he *api.HTTPError
	if err := c.Healthz(context.Background()); !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("Healthz during drain = %v, want 503 HTTPError", err)
	}
}
