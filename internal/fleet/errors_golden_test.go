package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pixel"
	"pixel/internal/jobs"
	"pixel/internal/server"
)

// TestErrorBodiesMatchWorker replays the worker's pinned rejections
// (internal/server/testdata/errors.golden.json) against a coordinator
// and requires the golden status and body byte for byte: a client must
// not tell a coordinator from a single node by its errors, nor by which
// of two faults it reports first. A bare case runs over a worker built
// with only an engine, so its 501s pass through the coordinator. A
// coordinator with no healthy worker still decodes first and validates
// jobs itself; only a well-formed synchronous request gets its own 503.
func TestErrorBodiesMatchWorker(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "server", "testdata", "errors.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name                  string
		Bare                  bool
		WorkerOnly            bool `json:"worker_only"`
		Method, Path, Request string
		Status                int
		Body                  string
	}
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}

	coordinator := func(cfg server.Config) string {
		cfg.Engine, cfg.Logger = pixel.NewEngine(pixel.EngineOptions{}), discardLogger()
		srv := server.New(cfg)
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			wts.Close()
			srv.Close()
		})
		c := newTestCoordinator(t, Options{Workers: []string{wts.URL}, ProbeInterval: time.Hour})
		ts := httptest.NewServer(c.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	full := coordinator(server.Config{
		Robust: server.RobustnessFunc(pixel.RobustnessContext),
		Infer:  server.PixelInfer{},
		Jobs:   &jobs.RegistryOptions{},
	})
	bare := coordinator(server.Config{})
	darkC := newTestCoordinator(t, Options{Workers: []string{"127.0.0.1:1"}, ProbeInterval: time.Millisecond})
	dark := httptest.NewServer(darkC.Handler())
	t.Cleanup(dark.Close)
	for deadline := time.Now().Add(5 * time.Second); darkC.healthyCount() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the unreachable worker was never evicted")
		}
	}

	do := func(base, method, path, body string) (int, string) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	shared := 0
	for _, tc := range cases {
		if tc.WorkerOnly {
			continue
		}
		shared++
		base := full
		if tc.Bare {
			base = bare
		}
		if status, body := do(base, tc.Method, tc.Path, tc.Request); status != tc.Status || body != tc.Body {
			t.Errorf("%s:\n got: %d %s\nwant: %d %s", tc.Name, status, body, tc.Status, tc.Body)
		}

		wantStatus, wantBody := tc.Status, tc.Body
		if tc.Path != "/v1/jobs" && !strings.Contains(tc.Body, "bad request body") {
			wantStatus, wantBody = http.StatusServiceUnavailable, noHealthyBody
		}
		if status, body := do(dark.URL, tc.Method, tc.Path, tc.Request); status != wantStatus || body != wantBody {
			t.Errorf("%s on a dark fleet:\n got: %d %s\nwant: %d %s", tc.Name, status, body, wantStatus, wantBody)
		}
	}
	if shared < 30 {
		t.Fatalf("only %d shared cases in the golden", shared)
	}
}

// noHealthyBody is the coordinator's own 503 body.
const noHealthyBody = `{
  "error": {
    "code": "no_healthy_workers",
    "message": "no healthy workers in the fleet; retry shortly",
    "retry_after": 1
  }
}
`
