package httpx

import (
	"fmt"
	"strings"
	"time"

	"pixel"
	"pixel/api"
)

// Request limits both roles enforce, with the same messages, before
// any work starts: a coordinator must reject what a single node would,
// without touching a worker. The two defaults are the pixeld flag
// defaults of both roles.
const (
	// MaxSweepJobs bounds the (networks x points) size of one sweep;
	// grids beyond it are rejected up front instead of tying a worker
	// pool up for minutes on one caller.
	MaxSweepJobs = 65536
	// MaxSigmaPoints bounds the σ axis of one robustness request;
	// together with the trial cap it bounds the total inference count
	// a single caller can queue.
	MaxSigmaPoints = 256
	// DefaultMaxTrials is the per-request trial cap of a robustness
	// run when the role's MaxTrials is unset.
	DefaultMaxTrials = 4096
	// DefaultRequestTimeout bounds one synchronous request end to end
	// when the role's RequestTimeout is unset.
	DefaultRequestTimeout = 30 * time.Second
)

// OrDefault returns v, or def when v is unset (<= 0) — the rule every
// count and duration knob of both roles follows.
func OrDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// EvaluatePoint validates an evaluate request and returns the design
// point it prices.
func EvaluatePoint(req api.EvaluateRequest) (pixel.Point, error) {
	return point(req.Design, req.Lanes, req.Bits)
}

// MapSpec validates a map request and returns the schedule it asks for.
func MapSpec(req api.MapRequest) (pixel.MapSpec, error) {
	p, err := point(req.Design, req.Lanes, req.Bits)
	if err != nil {
		return pixel.MapSpec{}, err
	}
	return pixel.MapSpec{Network: req.Network, Point: p, Rows: req.Rows, Cols: req.Cols, PhotonicWeights: req.PhotonicWeights}, nil
}

func point(design string, lanes, bits int) (pixel.Point, error) {
	d, err := pixel.ParseDesign(design)
	if err != nil {
		return pixel.Point{}, err
	}
	return pixel.Point{Design: d, Lanes: lanes, Bits: bits}, nil
}

// SweepDesigns validates a sweep request (a /v1/sweep body or a sweep
// job spec) and returns its design axis — every design when the
// request names none — and the size of its design-major point grid.
func SweepDesigns(req api.SweepRequest) (designs []pixel.Design, points int, err error) {
	if len(req.Networks) == 0 {
		return nil, 0, BadRequestf("networks must be non-empty")
	}
	if len(req.Lanes) == 0 || len(req.Bits) == 0 {
		return nil, 0, BadRequestf("lanes and bits axes must be non-empty")
	}
	designs = pixel.Designs()
	if len(req.Designs) > 0 {
		designs = designs[:0]
		for _, name := range req.Designs {
			d, err := pixel.ParseDesign(name)
			if err != nil {
				return nil, 0, err
			}
			designs = append(designs, d)
		}
	}
	points = len(designs) * len(req.Lanes) * len(req.Bits)
	if n := len(req.Networks) * points; n > MaxSweepJobs {
		return nil, 0, BadRequestf("sweep of %d jobs exceeds the %d-job limit", n, MaxSweepJobs)
	}
	return designs, points, nil
}

// maxInferImages bounds the image count of one /v1/infer request;
// callers with more traffic should pipeline requests and let the
// micro-batcher coalesce them.
const maxInferImages = 256

// InferNetwork validates an infer request — its image count, then each
// image against the input shape shapeOf reports for its network — and
// returns the network's canonical name (InferKey). A batched pass is
// shared, so a malformed image must fail its own request here rather
// than everyone else's downstream.
func InferNetwork(req api.InferRequest, shapeOf func(string) (pixel.InferShape, error)) (string, error) {
	if len(req.Images) == 0 {
		return "", BadRequestf("images must be non-empty")
	}
	if len(req.Images) > maxInferImages {
		return "", BadRequestf("%d images exceeds the %d-image limit", len(req.Images), maxInferImages)
	}
	network := InferKey(req)
	shape, err := shapeOf(network)
	if err != nil {
		return "", err
	}
	want := shape.H * shape.W * shape.C
	for i, img := range req.Images {
		if len(img) != want {
			return "", BadRequestf("image %d has %d values, want %dx%dx%d = %d", i, len(img), shape.H, shape.W, shape.C, want)
		}
		for _, v := range img {
			if v < 0 || v > shape.MaxValue {
				return "", BadRequestf("image %d has value %d outside [0, %d]", i, v, shape.MaxValue)
			}
		}
	}
	return network, nil
}

// RobustnessSpec validates a robustness request (a /v1/robustness
// body or a robustness job spec) against the trial cap and the σ-axis
// limit and returns the engine spec it describes.
func RobustnessSpec(req api.RobustnessRequest, maxTrials int) (pixel.RobustnessSpec, error) {
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		return pixel.RobustnessSpec{}, err
	}
	if req.Trials > maxTrials {
		return pixel.RobustnessSpec{}, BadRequestf("trials %d exceeds the %d-trial limit", req.Trials, maxTrials)
	}
	if len(req.Sigmas) > MaxSigmaPoints {
		return pixel.RobustnessSpec{}, BadRequestf("sigma axis of %d points exceeds the %d-point limit", len(req.Sigmas), MaxSigmaPoints)
	}
	return pixel.RobustnessSpec{
		Network:     req.Network,
		Design:      d,
		Sigmas:      req.Sigmas,
		Trials:      req.Trials,
		Seed:        req.Seed,
		ErrorBudget: req.ErrorBudget,
		Protection:  req.Protection,
	}, nil
}

// Request keys name what a request computes: a worker coalesces
// identical in-flight requests on them and a coordinator routes on
// them (behind a per-route prefix), so equal work lands on one
// worker's caches. One builder per route keeps the two roles agreeing.

// EvaluateKey is the key of pricing network at p.
func EvaluateKey(network string, p pixel.Point) string {
	return network + "|" + p.String()
}

// MapKey is the key of a schedule spec MapSpec accepted. No worker coalesces
// maps; a coordinator routes on it so repeats stay cache-warm.
func MapKey(spec pixel.MapSpec) string {
	return fmt.Sprintf("%s|%s|%d|%d|%t", spec.Network, spec.Point, spec.Rows, spec.Cols, spec.PhotonicWeights)
}

// InferKey is the key of an infer request: its network's canonical
// name, under which a worker batches it and a coordinator routes it.
func InferKey(req api.InferRequest) string {
	return strings.ToLower(strings.TrimSpace(req.Network))
}

// SweepKey is the key of a sweep request over its resolved design
// axis (SweepDesigns), so an omitted axis and the same designs named
// explicitly share a key.
func SweepKey(req api.SweepRequest, designs []pixel.Design) string {
	return fmt.Sprintf("%q|%v|%v|%v", req.Networks, designs, req.Lanes, req.Bits)
}

// RobustnessKey is the key of a robustness request RobustnessSpec
// accepted, so its design name is canonical. The report is a pure
// function of these fields (the engine's worker count is not one of
// them); a protection spec extends the key, so differently protected
// runs never share one.
func RobustnessKey(req api.RobustnessRequest) string {
	k := fmt.Sprintf("%s|%s|%v|%d|%d|%v", req.Network, req.Design, req.Sigmas, req.Trials, req.Seed, req.ErrorBudget)
	if p := req.Protection; p != nil {
		k += fmt.Sprintf("|%s:%d:%d:%d", p.Scheme, p.Copies, p.Retries, p.RecalEvery)
	}
	return k
}
