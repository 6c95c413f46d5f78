package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pixel"
	"pixel/internal/jobs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the /metrics series and response body goldens")

// seriesSet reduces a Prometheus text exposition to its sorted, unique
// series signatures: the sample name plus its label keys, values
// dropped, e.g. `pixeld_requests_total{code,route}`.
func seriesSet(text string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sample, _, _ := strings.Cut(line, " ")
		name, labels, hasLabels := strings.Cut(sample, "{")
		var keys []string
		if hasLabels {
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(kv, "=")
				keys = append(keys, k)
			}
			sort.Strings(keys)
		}
		seen[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// checkSeriesGolden compares a scrape's series set with a golden file
// (rewritten under -update-golden).
func checkSeriesGolden(t *testing.T, golden, scrape string) {
	t.Helper()
	got := strings.Join(seriesSet(scrape), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics series set changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsSeriesGolden pins the worker's /metrics series names and
// label keys after a fixed request sequence: a renamed, relabelled or
// dropped series fails until the golden is deliberately regenerated.
func TestMetricsSeriesGolden(t *testing.T) {
	srv := New(Config{Engine: pixel.NewEngine(pixel.EngineOptions{}), Logger: discardLogger(), Jobs: &jobs.RegistryOptions{}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getBody(t, ts.URL+"/healthz")
	if resp, body := postJSON(t, ts.URL+"/v1/evaluate", evalBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", resp.StatusCode, body)
	}
	resp, scrape := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	checkSeriesGolden(t, filepath.Join("testdata", "metrics.golden.txt"), scrape)
}
