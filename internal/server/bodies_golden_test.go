package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pixel"
	"pixel/api"
)

// TestHandlerBodiesGolden pins the exact response bytes of one request
// per cost route — evaluate (with per_layer), sweep, map and infer — so
// a change to how a payload is declared or encoded cannot move a wire
// byte unnoticed. The goldens in testdata/ were captured from an earlier
// build; -update-golden rewrites them.
func TestHandlerBodiesGolden(t *testing.T) {
	srv := New(Config{
		Engine:    pixel.NewEngine(pixel.EngineOptions{}),
		Infer:     PixelInfer{},
		BatchSize: 2,
		Logger:    discardLogger(),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	infer, err := json.Marshal(api.InferRequest{Network: "tiny", Images: tinyImages(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, route, body string }{
		{"evaluate", "/v1/evaluate", evalBody},
		{"sweep", "/v1/sweep", `{"networks":["LeNet","AlexNet"],"designs":["EE","OO"],"lanes":[4],"bits":[8,16]}`},
		{"map", "/v1/map", `{"network":"LeNet","design":"OO","lanes":4,"bits":8,"rows":4,"cols":4}`},
		{"infer", "/v1/infer", string(infer)},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+c.route, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d: %s", c.route, resp.StatusCode, body)
			}
			golden := filepath.Join("testdata", c.name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			if body != string(want) {
				t.Errorf("%s body changed:\n got: %s\nwant: %s", c.route, body, want)
			}
		})
	}
}
