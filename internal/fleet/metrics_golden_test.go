package fleet

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pixel/api"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the /metrics series golden")

// seriesSet reduces a Prometheus text exposition to its sorted, unique
// series signatures: the sample name plus its label keys, values
// dropped, e.g. `pixelfleet_shards_total{route,worker}`.
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

// TestMetricsSeriesGolden pins the coordinator's /metrics series names
// and label keys after a fixed request sequence, an evaluate and a
// sweep fan-out: a renamed, relabelled or dropped series fails until
// the golden is deliberately regenerated.
func TestMetricsSeriesGolden(t *testing.T) {
	workers := startWorkers(t, 1)
	c := newTestCoordinator(t, Options{Workers: workers})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	if status, body := postJSON(t, ts.URL+"/v1/evaluate", api.EvaluateRequest{Network: "AlexNet", Design: "OO", Lanes: 4, Bits: 16}); status != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/sweep", api.SweepRequest{Networks: []string{"LeNet"}, Lanes: []int{2, 4}, Bits: []int{8}}); status != http.StatusOK {
		t.Fatalf("sweep = %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden.txt")
	got := strings.Join(seriesSet(string(scrape)), "\n") + "\n"
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
