package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pixel"
	"pixel/internal/jobs"
)

// errorCase is one pinned rejection: the request, which worker answers
// it and the exact status and body it gets. The fleet coordinator
// replays every case and must answer byte for byte the same, so the
// golden file is its table too.
type errorCase struct {
	Name string `json:"name"`
	// Bare selects a worker built with only an engine (robustness,
	// inference and jobs unconfigured); otherwise every route is on.
	Bare bool `json:"bare,omitempty"`
	// WorkerOnly marks an answer a coordinator does not share: it
	// always serves jobs, and it decodes a body before it learns that
	// its worker lacks the route.
	WorkerOnly bool   `json:"worker_only,omitempty"`
	Method     string `json:"method"`
	Path       string `json:"path"`
	Request    string `json:"request"`
	Status     int    `json:"status"`
	Body       string `json:"body"`
}

// errorCases are the requests TestErrorBodiesGolden pins.
func errorCases() []errorCase {
	ints := func(n int) string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprint(i + 1)
		}
		return "[" + strings.Join(s, ",") + "]"
	}
	sigmas := strings.Repeat("0.01,", 256) + "0.01"
	hugeGrid := `{"networks":["LeNet"],"lanes":` + ints(200) + `,"bits":` + ints(200) + `}`
	rob := func(design, extra string) string {
		return `{"network":"LeNet","design":"` + design + `","sigmas":[0.01],"trials":4` + extra + `}`
	}
	tooManyTrials := `{"network":"LeNet","design":"OO","sigmas":[0.01],"trials":4097}`
	tooManySigmas := `{"network":"LeNet","design":"OO","sigmas":[` + sigmas + `],"trials":4}`
	tiny := func(img string) string { return `{"network":"tiny","images":[` + img + `]}` }
	post := func(name, path, req string) errorCase {
		return errorCase{Name: name, Method: http.MethodPost, Path: path, Request: req}
	}
	bare := func(c errorCase) errorCase { c.Bare = true; return c }
	cases := []errorCase{
		post("evaluate trailing garbage", "/v1/evaluate", `{"network":"LeNet","design":"OO","lanes":4,"bits":8} x`),
		post("evaluate unknown field", "/v1/evaluate", `{"network":"LeNet","design":"OO","lane":4,"bits":8}`),
		post("evaluate unknown design", "/v1/evaluate", `{"network":"LeNet","design":"XX","lanes":4,"bits":8}`),

		post("sweep trailing garbage", "/v1/sweep", `{"networks":["LeNet"],"lanes":[4],"bits":[8]} x`),
		post("sweep unknown field", "/v1/sweep", `{"networks":["LeNet"],"lane":[4],"bits":[8]}`),
		post("sweep unknown design", "/v1/sweep", `{"networks":["LeNet"],"designs":["OO","XX"],"lanes":[4],"bits":[8]}`),
		post("sweep grid limit", "/v1/sweep", hugeGrid),

		post("map trailing garbage", "/v1/map", `{"network":"LeNet","design":"OO","lanes":4,"bits":8,"rows":4,"cols":4} x`),
		post("map unknown field", "/v1/map", `{"network":"LeNet","design":"OO","lanes":4,"bits":8,"row":4,"cols":4}`),
		post("map unknown design", "/v1/map", `{"network":"LeNet","design":"XX","lanes":4,"bits":8,"rows":4,"cols":4}`),

		post("robustness trailing garbage", "/v1/robustness", rob("OO", "")+" x"),
		post("robustness unknown field", "/v1/robustness", rob("OO", `,"trial":4`)),
		post("robustness unknown design", "/v1/robustness", rob("XX", "")),
		post("robustness trial limit", "/v1/robustness", tooManyTrials),
		post("robustness sigma limit", "/v1/robustness", tooManySigmas),

		post("infer trailing garbage", "/v1/infer", tiny("[1]")+" x"),
		post("infer unknown field", "/v1/infer", `{"network":"tiny","image":[[1]]}`),
		post("infer bad image length", "/v1/infer", tiny("[1,2,3]")),
		post("infer bad image value", "/v1/infer", tiny("["+strings.TrimSuffix(strings.Repeat("1,", 63), ",")+",99999]")),

		post("jobs trailing garbage", "/v1/jobs", `{"kind":"sweep","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}} x`),
		post("jobs unknown field", "/v1/jobs", `{"kind":"sweep","spec":{"networks":["LeNet"],"lanes":[4],"bits":[8]}}`),
		post("jobs sweep unknown field", "/v1/jobs", `{"kind":"sweep","sweep":{"networks":["LeNet"],"lane":[4],"bits":[8]}}`),
		post("jobs sweep unknown design", "/v1/jobs", `{"kind":"sweep","sweep":{"networks":["LeNet"],"designs":["XX"],"lanes":[4],"bits":[8]}}`),
		post("jobs sweep grid limit", "/v1/jobs", `{"kind":"sweep","sweep":`+hugeGrid+`}`),
		post("jobs robustness unknown design", "/v1/jobs", `{"kind":"robustness","robustness":`+rob("XX", "")+`}`),
		post("jobs robustness trial limit", "/v1/jobs", `{"kind":"robustness","robustness":`+tooManyTrials+`}`),
		post("jobs robustness sigma limit", "/v1/jobs", `{"kind":"robustness","robustness":`+tooManySigmas+`}`),
		post("jobs unknown kind", "/v1/jobs", `{"kind":"train","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}}`),
		post("jobs missing sweep spec", "/v1/jobs", `{"kind":"sweep"}`),
		post("jobs missing robustness spec", "/v1/jobs", `{"kind":"robustness","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}}`),

		bare(post("robustness not implemented", "/v1/robustness", rob("OO", ""))),
		bare(post("infer not implemented", "/v1/infer", tiny("[1]"))),
	}
	// A route the role was built without answers 501 before it reads
	// the body.
	for _, c := range []errorCase{
		post("robustness not implemented before decode", "/v1/robustness", "x"),
		post("infer not implemented before decode", "/v1/infer", "x"),
		post("jobs not implemented", "/v1/jobs", `{"kind":"sweep","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}}`),
		post("jobs not implemented before decode", "/v1/jobs", "x"),
		{Name: "job get not implemented", Method: http.MethodGet, Path: "/v1/jobs/j1"},
		{Name: "job delete not implemented", Method: http.MethodDelete, Path: "/v1/jobs/j1"},
		{Name: "job events not implemented", Method: http.MethodGet, Path: "/v1/jobs/j1/events"},
	} {
		c.Bare, c.WorkerOnly = true, true
		cases = append(cases, c)
	}
	return cases
}

// Do sends c's request to base and returns the status and raw body.
func (c errorCase) Do(t *testing.T, base string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(c.Method, base+c.Path, strings.NewReader(c.Request))
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

// TestErrorBodiesGolden pins the status and exact body of each request
// rejection — strict decoding, design parsing, the request limits, the
// job spec checks and the 501s of unconfigured routes — and so their
// precedence. testdata/errors.golden.json was captured from an earlier
// build; -update-golden rewrites it.
func TestErrorBodiesGolden(t *testing.T) {
	full := New(Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: RobustnessFunc(pixel.RobustnessContext),
		Infer:  PixelInfer{},
		Jobs:   &jobs.RegistryOptions{},
		Logger: discardLogger(),
	})
	defer full.Close()
	bare := New(Config{Engine: pixel.NewEngine(pixel.EngineOptions{}), Logger: discardLogger()})
	fullTS, bareTS := httptest.NewServer(full.Handler()), httptest.NewServer(bare.Handler())
	defer fullTS.Close()
	defer bareTS.Close()

	got := errorCases()
	for i, c := range got {
		base := fullTS.URL
		if c.Bare {
			base = bareTS.URL
		}
		got[i].Status, got[i].Body = c.Do(t, base)
	}
	golden := filepath.Join("testdata", "errors.golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want []errorCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, the table %d", len(want), len(got))
	}
	for i, g := range got {
		if g != want[i] {
			t.Errorf("%s:\n got: %d %s\nwant: %d %s", g.Name, g.Status, g.Body, want[i].Status, want[i].Body)
		}
	}
}
