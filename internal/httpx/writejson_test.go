package httpx

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pixel"
	"pixel/api"
)

// TestWriteJSONEncodeFailure: a value encoding/json refuses — NaN or
// ±Inf in a top-level field, a breakdown value or a per-layer value,
// of an evaluate body or a sweep body — is answered with the 500
// "internal" envelope, not a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for where, r := range map[string]pixel.Result{
			"field":     {EnergyJ: f},
			"breakdown": {Breakdown: pixel.Breakdown{Mul: 1, Laser: f}},
			"per_layer": {PerLayer: []pixel.LayerResult{{Name: "conv1", LatencyS: f}}},
		} {
			for _, v := range []any{r, api.SweepResponse{Points: 1, Results: map[string][]api.Result{"LeNet": {r}}}} {
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusOK, v)
				var env api.ErrorEnvelope
				err := json.Unmarshal(rec.Body.Bytes(), &env)
				if rec.Code != http.StatusInternalServerError || err != nil || env.Error.Code != "internal" ||
					!strings.Contains(env.Error.Message, "unsupported value") {
					t.Errorf("%v in %s of %T: status %d, body %q", f, where, v, rec.Code, rec.Body)
				}
			}
		}
	}
}

// headerWriter is a ResponseWriter that keeps its header map and
// discards the body.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(int)             {}

// TestWriteJSONSweepAllocs: writing a sweep response costs at most 10
// allocations whatever its row count — the appender writes into a
// pooled buffer (encoding/json took over a thousand for 96 rows).
func TestWriteJSONSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	nets := pixel.Networks()[:2]
	rows, err := pixel.SweepNetworks(context.Background(), nets,
		pixel.Grid(pixel.Designs(), []int{2, 4, 8, 16}, []int{2, 4, 6, 8}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, copies := range []int{1, 10} {
		resp := api.SweepResponse{Points: 48, Results: map[string][]api.Result{}}
		for c := 0; c < copies; c++ {
			for _, n := range nets {
				resp.Results[fmt.Sprintf("%s-%d", n, c)] = rows[n]
			}
		}
		w := &headerWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(20, func() { WriteJSON(w, http.StatusOK, resp) })
		if allocs > 10 {
			t.Errorf("%d rows: WriteJSON took %.0f allocations, want at most 10", 96*copies, allocs)
		}
	}
}

// TestSweepRowAllocs: a warm worker's /v1/sweep — SweepNetworks over a
// cached 96-row grid, then WriteJSON of its rows — allocates less than
// one object per row. A sweep row is flat values: no breakdown map and
// no per-layer slice built and dropped.
func TestSweepRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	ctx := context.Background()
	eng := pixel.NewEngine(pixel.EngineOptions{Workers: 2}) // pool goroutines allocate too
	nets := pixel.Networks()[:2]
	points := pixel.Grid(pixel.Designs(), []int{2, 4, 8, 16}, []int{2, 4, 6, 8})
	rows := len(nets) * len(points)
	sweep := func() {
		byNet, err := eng.SweepNetworks(ctx, nets, points, nil)
		if err != nil {
			t.Fatal(err)
		}
		WriteJSON(&headerWriter{h: http.Header{}}, http.StatusOK, api.SweepResponse{Points: len(points), Results: byNet})
	}
	sweep()
	calls := eng.CostCalls()
	allocs := testing.AllocsPerRun(20, sweep)
	if eng.CostCalls() != calls {
		t.Fatal("the warm sweep priced points again")
	}
	t.Logf("%d rows: %.0f allocations", rows, allocs)
	if allocs >= float64(rows) {
		t.Errorf("%d rows: a warm sweep and its body took %.0f allocations, want fewer than one per row", rows, allocs)
	}
}
