package httpx

import (
	"fmt"
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
