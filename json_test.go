package pixel

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsJSONGolden pins the bytes of WriteResultsJSON — the
// pixelsweep -json output — for a small multi-network sweep.
// testdata/pixelsweep.golden.json is what an earlier build of
// `pixelsweep -net LeNet,AlexNet -lanes 4 -bits 8,16 -json` printed;
// never regenerate it. Reading it back and writing it again must also
// reproduce it byte for byte.
func TestResultsJSONGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "pixelsweep.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	networks := []string{"LeNet", "AlexNet"}
	byNet, err := SweepNetworks(context.Background(), networks, Grid(Designs(), []int{4}, []int{8, 16}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []Result
	for _, n := range networks {
		all = append(all, byNet[n]...)
	}
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("WriteResultsJSON output differs from the golden:\n%s", buf.Bytes())
	}

	back, err := ReadResultsJSON(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteResultsJSON(&buf, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("read-then-write does not reproduce the golden:\n%s", buf.Bytes())
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	byNet, err := SweepNetworks(context.Background(), []string{"LeNet"}, Grid(Designs(), []int{4}, []int{8, 16}), nil)
	if err != nil {
		t.Fatal(err)
	}
	results := byNet["LeNet"]
	var sb strings.Builder
	if err := WriteResultsJSON(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"design": "OO"`) {
		t.Errorf("JSON missing design names:\n%s", sb.String()[:200])
	}
	back, err := ReadResultsJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
	}
	for i := range results {
		if back[i].Design != results[i].Design ||
			back[i].EDP != results[i].EDP ||
			back[i].Breakdown != results[i].Breakdown {
			t.Errorf("result %d did not round-trip", i)
		}
	}

	// An evaluate result carries per-layer data; the written rows do
	// not, and the caller's result keeps it.
	ev, err := EvaluateContext(context.Background(), "LeNet", Point{OO, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.PerLayer) == 0 {
		t.Fatal("EvaluateContext returned no per-layer data")
	}
	evs := []Result{ev}
	sb.Reset()
	if err := WriteResultsJSON(&sb, evs); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "per_layer") {
		t.Errorf("WriteResultsJSON wrote per-layer data:\n%s", sb.String())
	}
	if len(evs[0].PerLayer) == 0 {
		t.Error("WriteResultsJSON cleared the caller's per-layer data")
	}
}

func TestWriteResultsJSONValidation(t *testing.T) {
	var sb strings.Builder
	if err := WriteResultsJSON(&sb, nil); err == nil {
		t.Error("empty results should error")
	}
}

func TestReadResultsJSONErrors(t *testing.T) {
	if _, err := ReadResultsJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage should error")
	}
	bad := `[{"design": "XX", "network": "LeNet"}]`
	if _, err := ReadResultsJSON(strings.NewReader(bad)); err == nil {
		t.Error("unknown design should error")
	}
}
