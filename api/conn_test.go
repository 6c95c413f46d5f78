package api

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnection: sequential calls through one Client ride
// one keep-alive connection — sweeps with a 47 KB chunked body, error
// envelopes and health probes alike — because every response body is
// read to EOF before it is closed.
func TestClientReusesConnection(t *testing.T) {
	sweep, _ := sweepBody(t, 2, []int{2, 4, 8, 16}, []int{2, 4, 6, 8})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(sweep)
	})
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte("{\n  \"error\": {\n    \"code\": \"unknown_network\",\n    \"message\": \"pixel: unknown network\"\n  }\n}\n"))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\n  \"status\": \"ok\"\n}\n"))
	})
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := NewClient(srv.URL, &http.Client{Transport: tr})

	ctx := context.Background()
	const n = 20
	for i := 0; i < n; i++ {
		resp, err := c.Sweep(ctx, SweepRequest{})
		if err != nil || resp.Points != 48 {
			t.Fatalf("sweep %d: %d points, %v", i, resp.Points, err)
		}
		var he *HTTPError
		if _, err := c.Evaluate(ctx, EvaluateRequest{}); !errors.As(err, &he) || he.Code != "unknown_network" {
			t.Fatalf("evaluate %d: %v", i, err)
		}
		if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
			t.Fatalf("health %d: %+v, %v", i, h, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("%d sweeps, error envelopes and health probes opened %d connections, want 1", n, got)
	}
}
