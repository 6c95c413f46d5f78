package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pixel"
	"pixel/internal/httpx"
)

// stubRobust is a controllable RobustnessEvaluator mirroring
// stubEngine's park protocol.
type stubRobust struct {
	calls   atomic.Int64
	entered chan struct{}
	unblock chan struct{}
	ctxErr  chan error
	specs   chan pixel.RobustnessSpec
}

func (s *stubRobust) RobustnessContext(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
	s.calls.Add(1)
	if s.specs != nil {
		s.specs <- spec
	}
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.unblock != nil {
		select {
		case <-s.unblock:
		case <-ctx.Done():
			if s.ctxErr != nil {
				s.ctxErr <- ctx.Err()
			}
			return pixel.RobustnessReport{}, ctx.Err()
		}
	}
	points := make([]pixel.YieldPoint, len(spec.Sigmas))
	for i, sg := range spec.Sigmas {
		points[i] = pixel.YieldPoint{Sigma: sg, Yield: 1}
	}
	return pixel.RobustnessReport{
		Network: spec.Network,
		Design:  spec.Design.String(),
		Trials:  spec.Trials,
		Seed:    spec.Seed,
		Points:  points,
	}, nil
}

const robustBody = `{"network":"lenet","design":"OO","sigmas":[0,1,2],"trials":16,"seed":1}`

// TestRobustnessCoalescing is the acceptance check: two concurrent
// identical POST /v1/robustness requests share one engine run.
func TestRobustnessCoalescing(t *testing.T) {
	stub := &stubRobust{
		entered: make(chan struct{}, 2),
		unblock: make(chan struct{}),
	}
	srv := New(Config{Engine: &stubEngine{}, Robust: stub, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/robustness", robustBody)
			replies <- reply{resp.StatusCode, body}
		}()
	}

	<-stub.entered // leader is inside the engine
	key := "lenet|OO|[0 1 2]|16|1|0"
	waitFor(t, "follower to join the flight", func() bool { return srv.robustFlights.waiters(key) == 2 })
	close(stub.unblock)

	var first string
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("status = %d, body %s", r.status, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Error("coalesced replies differ")
		}
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("engine runs = %d, want 1 (coalesced)", got)
	}
	if got := srv.metrics.coalesced.Load(); got != 1 {
		t.Errorf("coalesced counter = %d, want 1", got)
	}
}

// TestRobustnessRequestGuards covers the request-size guard and the
// unconfigured-route response.
func TestRobustnessRequestGuards(t *testing.T) {
	srv := New(Config{
		Engine:    &stubEngine{},
		Robust:    &stubRobust{},
		MaxTrials: 64,
		Logger:    discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Trials above -max-trials: 400 without touching the engine.
	resp, body := postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"lenet","design":"OO","sigmas":[0,1],"trials":65,"seed":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-limit trials: status = %d, body %s; want 400", resp.StatusCode, body)
	}
	if !strings.Contains(body, "64-trial limit") {
		t.Errorf("over-limit body %q should name the limit", body)
	}

	// An oversize sigma axis is rejected the same way.
	sigmas := make([]string, httpx.MaxSigmaPoints+1)
	for i := range sigmas {
		sigmas[i] = "1"
	}
	resp, body = postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"lenet","design":"OO","sigmas":[`+strings.Join(sigmas, ",")+`],"trials":8,"seed":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize sigma axis: status = %d, body %s; want 400", resp.StatusCode, body)
	}

	// Unknown design still parses at the route boundary.
	resp, _ = postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"lenet","design":"XX","sigmas":[0],"trials":8,"seed":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown design: status = %d, want 400", resp.StatusCode)
	}

	// A server constructed without a robustness engine answers 501.
	bare := New(Config{Engine: &stubEngine{}, Logger: discardLogger()})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, body = postJSON(t, tsBare.URL+"/v1/robustness", robustBody)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured route: status = %d, body %s; want 501", resp.StatusCode, body)
	}
}

// TestRobustnessRealEngine runs the real Monte-Carlo engine through
// the route on the tiny network and checks the curve plus the route's
// Prometheus series — requests, latency, shed and coalesced counters
// all move.
func TestRobustnessRealEngine(t *testing.T) {
	srv := New(Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: RobustnessFunc(pixel.RobustnessContext),
		Logger: discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"tiny","design":"OO","sigmas":[0,2,4],"trials":12,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rep pixel.RobustnessReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Network != "tiny" || rep.Design != "OO" || len(rep.Points) != 3 {
		t.Fatalf("report shape %+v", rep)
	}
	if rep.Points[0].Yield != 1 {
		t.Errorf("σ=0 yield %g, want 1", rep.Points[0].Yield)
	}
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].Yield > rep.Points[i-1].Yield {
			t.Errorf("yield curve not monotone: %+v", rep.Points)
		}
	}

	// Identical repeat: the engine recomputes (no result cache on this
	// route), but the response must be bit-identical — the determinism
	// claim over the wire.
	if _, body2 := postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"tiny","design":"OO","sigmas":[0,2,4],"trials":12,"seed":7}`); body2 != body {
		t.Error("identical robustness request returned a different body")
	}

	// Bad-spec and unknown-network sentinels map to 400/404.
	resp, _ = postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"tiny","design":"OO","sigmas":[],"trials":12,"seed":7}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sigma axis: status = %d, want 400 (ErrBadSpec)", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"nope","design":"OO","sigmas":[0],"trials":4,"seed":1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown network: status = %d, want 404", resp.StatusCode)
	}

	_, metricsBody := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`pixeld_requests_total{route="/v1/robustness",code="200"} 2`,
		`pixeld_requests_total{route="/v1/robustness",code="400"} 1`,
		`pixeld_requests_total{route="/v1/robustness",code="404"} 1`,
		`pixeld_request_duration_seconds_count{route="/v1/robustness"} 4`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRobustnessShedding proves the route sits behind the shared
// admission control: with the only slot held by a robustness run, a
// different robustness request is shed with 429 and the shed counter
// moves.
func TestRobustnessShedding(t *testing.T) {
	stub := &stubRobust{
		entered: make(chan struct{}, 1),
		unblock: make(chan struct{}),
	}
	srv := New(Config{
		Engine:       &stubEngine{},
		Robust:       stub,
		MaxInFlight:  1,
		QueueTimeout: 30 * time.Millisecond,
		Logger:       discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/robustness", robustBody)
		first <- resp.StatusCode
	}()
	<-stub.entered // the slot is held

	// A different spec (no coalescing possible) must be shed.
	resp, _ := postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"lenet","design":"OO","sigmas":[0,1,2],"trials":8,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := srv.metrics.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(stub.unblock)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("blocked request finished with %d", status)
	}
}

// TestRobustnessProtectionPassthrough proves the protection object
// reaches the engine spec verbatim, and that a protected request never
// coalesces with its unprotected twin — the flight key includes the
// scheme.
func TestRobustnessProtectionPassthrough(t *testing.T) {
	stub := &stubRobust{
		entered: make(chan struct{}, 2),
		unblock: make(chan struct{}),
		specs:   make(chan pixel.RobustnessSpec, 2),
	}
	srv := New(Config{Engine: &stubEngine{}, Robust: stub, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	protectedBody := `{"network":"lenet","design":"OO","sigmas":[0,1,2],"trials":16,"seed":1,"protection":{"scheme":"tmr"}}`
	statuses := make(chan int, 2)
	for _, body := range []string{robustBody, protectedBody} {
		body := body
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/robustness", body)
			statuses <- resp.StatusCode
		}()
	}
	// Both runs enter the engine: different keys, no shared flight.
	<-stub.entered
	<-stub.entered
	close(stub.unblock)
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("status = %d, want 200", status)
		}
	}
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("engine runs = %d, want 2 (protection must split the key)", got)
	}
	if got := srv.metrics.coalesced.Load(); got != 0 {
		t.Errorf("coalesced counter = %d, want 0", got)
	}
	var protected, bare int
	for i := 0; i < 2; i++ {
		spec := <-stub.specs
		if p := spec.Protection; p != nil {
			protected++
			if p.Scheme != "tmr" {
				t.Errorf("spec protection scheme %q, want tmr", p.Scheme)
			}
		} else {
			bare++
		}
	}
	if protected != 1 || bare != 1 {
		t.Errorf("specs seen: %d protected, %d bare; want 1 and 1", protected, bare)
	}
}

// TestRobustnessClientCancelReleasesSlot proves a client hang-up mid
// Monte-Carlo reaches the engine as context cancellation AND releases
// the admission slot: the very next request on a single-slot server
// must be admitted, not shed.
func TestRobustnessClientCancelReleasesSlot(t *testing.T) {
	stub := &stubRobust{
		entered: make(chan struct{}, 2),
		unblock: make(chan struct{}, 1), // fed one token for the recovery request
		ctxErr:  make(chan error, 1),
	}
	srv := New(Config{
		Engine:      &stubEngine{},
		Robust:      stub,
		MaxInFlight: 1,
		Logger:      discardLogger(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/robustness",
		strings.NewReader(robustBody))
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

	<-stub.entered // the sweep holds the only slot
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
		return hasSample(t, ts.URL, `pixeld_requests_total{route="/v1/robustness",code="499"} 1`)
	})

	// The slot must be free again: a fresh request is admitted and
	// completes once the stub lets it through.
	stub.unblock <- struct{}{}
	resp, body := postJSON(t, ts.URL+"/v1/robustness",
		`{"network":"lenet","design":"OO","sigmas":[0,1],"trials":8,"seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel status = %d, body %s; want 200 (slot leaked?)", resp.StatusCode, body)
	}
}
