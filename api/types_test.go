package api

import (
	"encoding/json"
	"reflect"
	"testing"

	"pixel"
)

// wireSamples is one fully-populated instance of every wire type —
// every field set to a non-zero value so both the round-trip and the
// golden-shape tests exercise the full schema. Keys are stable names
// used in the golden fixture.
func wireSamples() map[string]any {
	return map[string]any{
		"evaluate_request": EvaluateRequest{Network: "lenet", Design: "OE", Lanes: 8, Bits: 4},
		"result": Result{
			Network: "lenet", Design: pixel.OE, Lanes: 8, Bits: 4,
			EnergyJ: 0.25, LatencyS: 0.5, EDP: 0.125,
			Breakdown: pixel.Breakdown{Act: 0.01, Add: 0.02, Comm: 0.03, Laser: 0.15, Mul: 0.1, OtoE: 0.04},
			PerLayer:  []LayerResult{{Name: "conv1", EnergyJ: 0.1, LatencyS: 0.2}},
		},
		"sweep_request": SweepRequest{
			Networks: []string{"lenet", "vgg16"},
			Designs:  []string{"EE", "OO"},
			Lanes:    []int{4, 8},
			Bits:     []int{2, 4},
		},
		"sweep_response": SweepResponse{
			Points: 2,
			Results: map[string][]Result{
				"lenet": {{Network: "lenet", Design: pixel.EE, Lanes: 4, Bits: 2, EnergyJ: 1, LatencyS: 2, EDP: 2}},
			},
		},
		"map_request": MapRequest{
			Network: "lenet", Design: "OO", Lanes: 8, Bits: 4,
			Rows: 2, Cols: 3, PhotonicWeights: true,
		},
		"map_response": MapResponse{
			Network: "lenet", Rows: 2, Cols: 3,
			SequentialS: 1.5, PipelinedS: 0.75, PreloadJ: 0.01, Utilization: 0.9,
		},
		"robustness_request": RobustnessRequest{
			Network: "lenet", Design: "OE", Sigmas: []float64{0.5, 1},
			Trials: 32, Seed: 7, ErrorBudget: 0.01,
			Protection: &ProtectionSpec{Scheme: "nmr", Copies: 3, Retries: 2, RecalEvery: 16},
		},
		"infer_request": InferRequest{Network: "lenet", Images: [][]int64{{1, 2}, {3, 4}}},
		"infer_response": InferResponse{
			Results: []InferResult{{Outputs: []int64{9, 4, 7}, ArgMax: 0}},
			Batched: 4,
		},
		"job_request": JobRequest{
			Kind: JobKindRobustness,
			Robustness: &RobustnessRequest{
				Network: "lenet", Design: "OO", Sigmas: []float64{1},
				Trials: 16, Seed: 3, ErrorBudget: 0.01,
			},
			Sweep: &SweepRequest{
				Networks: []string{"lenet"}, Designs: []string{"EE"},
				Lanes: []int{4}, Bits: []int{8},
			},
		},
		"job_handle": JobHandle{ID: "a1b2c3d4e5f60718", Kind: JobKindSweep, State: JobStateQueued},
		"job_status_response": JobStatusResponse{
			ID: "a1b2c3d4e5f60718", Kind: JobKindRobustness, State: JobStateRunning,
			Done: 48, Total: 96, CreatedUnix: 1754000000, Adopted: true,
			Error:   "worker exploded",
			Result:  json.RawMessage(`{"network":"lenet"}`),
			Partial: json.RawMessage(`[{"index":0}]`),
		},
		"job_progress": JobProgress{Done: 48, Total: 96, Error: "worker exploded"},
		"job_point": JobPoint{
			Index: 2,
			Point: pixel.YieldPoint{
				Sigma: 1.5, Yield: 0.875, ArgmaxRate: 0.9375,
				MeanMismatch: 0.01, P50Mismatch: 0.005, P95Mismatch: 0.02,
				MaxMismatch: 0.04, MeanInjectedBER: 1e-5, CleanTrials: 3,
			},
			Protected: &pixel.ProtectedPoint{Calls: 48, Retries: 6, Disagreements: 2, GaveUp: 1, RetryFactor: 1.125},
		},
		"job_cell": JobCell{
			Network: "lenet", Index: 3,
			Result: Result{
				Network: "lenet", Design: pixel.OE, Lanes: 8, Bits: 4,
				EnergyJ: 0.25, LatencyS: 0.5, EDP: 0.125,
				Breakdown: pixel.Breakdown{Act: 0.01, Add: 0.02, Comm: 0.03, Laser: 0.15, Mul: 0.1, OtoE: 0.04},
			},
		},
		"job_event": JobEvent{
			Seq: 7, Type: JobEventProgress,
			Data: json.RawMessage(`{"done":48,"total":96}`),
		},
		"fleet_worker_request": FleetWorkerRequest{Addr: "http://127.0.0.1:9101"},
		"fleet_worker": FleetWorker{
			Addr: "http://127.0.0.1:9101", Healthy: true, Breaker: "half-open",
		},
		"fleet_workers_response": FleetWorkersResponse{
			Workers: []FleetWorker{{Addr: "http://127.0.0.1:9101", Healthy: true, Breaker: "closed"}},
		},
		"networks_response": NetworksResponse{Networks: []string{"lenet"}},
		"designs_response":  DesignsResponse{Designs: []string{"EE", "OE", "OO"}},
		"health_response":   HealthResponse{Status: "ok"},
		"error_envelope": ErrorEnvelope{Error: Error{
			Code: "overloaded", Message: "queue full", RetryAfterS: 1,
		}},
	}
}

// TestWireRoundTrip proves every wire type survives
// marshal -> unmarshal -> equal, so clients and server can exchange
// them without loss.
func TestWireRoundTrip(t *testing.T) {
	for name, sample := range wireSamples() {
		t.Run(name, func(t *testing.T) {
			buf, err := json.Marshal(sample)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(sample))
			if err := json.Unmarshal(buf, back.Interface()); err != nil {
				t.Fatal(err)
			}
			if got := back.Elem().Interface(); !reflect.DeepEqual(got, sample) {
				t.Fatalf("round trip changed value:\n got %#v\nwant %#v", got, sample)
			}
		})
	}
}

// TestErrorEnvelopeOmitsRetryAfter pins the optional field contract:
// retry_after appears only when set.
func TestErrorEnvelopeOmitsRetryAfter(t *testing.T) {
	buf, err := json.Marshal(ErrorEnvelope{Error: Error{Code: "bad_request", Message: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":{"code":"bad_request","message":"x"}}`; string(buf) != want {
		t.Fatalf("envelope = %s, want %s", buf, want)
	}
}
