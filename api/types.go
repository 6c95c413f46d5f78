// Package api is pixeld's versioned wire surface: the request and
// response types of every /v1 route, the uniform error envelope, and a
// thin HTTP client speaking them. The server marshals exactly these
// types and nothing else, so a client importing this package can never
// drift from the wire format; TestGoldenWireShapes pins the JSON shape
// of every type so accidental field changes fail CI.
//
// Response payloads the pixel library already computes are pixel's own
// types, declared once: Result, LayerResult, InferResult, MapResponse
// and RobustnessResponse are aliases of wire-tagged pixel types, so a
// handler writes the engine's value as it is.
package api

import "pixel"

// Result is the POST /v1/evaluate response and a /v1/sweep row: the
// cost of one full CNN inference under a design point. It is
// pixel.Result, field-compatible with the pixelsweep -json output;
// sweep rows carry no per_layer (see pixel.Result.PerLayer).
type Result = pixel.Result

// LayerResult is one layer's share of an inference cost; it is
// pixel.LayerResult.
type LayerResult = pixel.LayerResult

// EvaluateRequest is the POST /v1/evaluate body: one design point of
// one network. The response is a Result.
type EvaluateRequest struct {
	Network string `json:"network"`
	Design  string `json:"design"`
	Lanes   int    `json:"lanes"`
	Bits    int    `json:"bits"`
}

// SweepRequest is the POST /v1/sweep body: the cross product of
// designs x lanes x bits evaluated for every listed network. An empty
// designs list means all three.
type SweepRequest struct {
	Networks []string `json:"networks"`
	Designs  []string `json:"designs"`
	Lanes    []int    `json:"lanes"`
	Bits     []int    `json:"bits"`
}

// SweepResponse is the POST /v1/sweep response: per-network result
// rows in point order, plus the grid size.
type SweepResponse struct {
	Points  int                 `json:"points"`
	Results map[string][]Result `json:"results"`
}

// MapRequest is the POST /v1/map body: schedule a network onto a
// rows x cols tile grid at a design point.
type MapRequest struct {
	Network         string `json:"network"`
	Design          string `json:"design"`
	Lanes           int    `json:"lanes"`
	Bits            int    `json:"bits"`
	Rows            int    `json:"rows"`
	Cols            int    `json:"cols"`
	PhotonicWeights bool   `json:"photonic_weights"`
}

// MapResponse is the POST /v1/map response: the schedule summary,
// pixel.ScheduleSummary.
type MapResponse = pixel.ScheduleSummary

// ProtectionSpec selects a fault-mitigation scheme for a robustness
// sweep; it is pixel.ProtectionSpec, which is already wire-tagged.
type ProtectionSpec = pixel.ProtectionSpec

// RobustnessRequest is the POST /v1/robustness body. Workers is
// deliberately absent from the wire format: pool sizing is the
// server's resource decision, and the engine's report is bit-identical
// at any width anyway.
type RobustnessRequest struct {
	Network     string          `json:"network"`
	Design      string          `json:"design"`
	Sigmas      []float64       `json:"sigmas"`
	Trials      int             `json:"trials"`
	Seed        int64           `json:"seed"`
	ErrorBudget float64         `json:"error_budget"`
	Protection  *ProtectionSpec `json:"protection,omitempty"`
}

// RobustnessResponse is the POST /v1/robustness response; it is
// pixel.RobustnessReport, which is already wire-tagged.
type RobustnessResponse = pixel.RobustnessReport

// InferRequest is the POST /v1/infer body: a batch of images for one
// named demo network. Each image is the H*W*C activation values in HWC
// order (see GET /v1/networks and pixel.InferNetworkShape for
// geometry). The server may micro-batch several requests into one
// word-parallel engine pass; results are bit-identical either way.
type InferRequest struct {
	Network string    `json:"network"`
	Images  [][]int64 `json:"images"`
}

// InferResult is one image's inference output: the final layer's raw
// activation vector and its argmax. It is pixel.InferResult.
type InferResult = pixel.InferResult

// InferResponse is the POST /v1/infer response: one result per image,
// in request order. Batched reports how many images the serving batch
// that carried this request executed together (observability for the
// micro-batcher; at least len(results)).
type InferResponse struct {
	Results []InferResult `json:"results"`
	Batched int           `json:"batched"`
}

// NetworksResponse is the GET /v1/networks response.
type NetworksResponse struct {
	Networks []string `json:"networks"`
}

// DesignsResponse is the GET /v1/designs response.
type DesignsResponse struct {
	Designs []string `json:"designs"`
}

// HealthResponse is the GET /healthz response.
type HealthResponse struct {
	Status string `json:"status"`
}

// Error is the uniform error detail every non-2xx pixeld response
// carries, wrapped in ErrorEnvelope. Code is a stable machine-readable
// name (see the server's sentinel table); Message is human-readable
// and may change between versions.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterS, on code "overloaded" (429), is the server's hint in
	// seconds before retrying; it mirrors the Retry-After header.
	RetryAfterS int `json:"retry_after,omitempty"`
}

// ErrorEnvelope is the JSON body of every non-2xx response:
// {"error":{"code","message","retry_after?"}}.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}
