package httpx

import (
	"net/http"
	"testing"

	"pixel"
	"pixel/api"
	"pixel/internal/jobs"
)

// requestRoutes pairs each /v1 request type with the validation its
// route runs on both roles before any work starts: strict decoding,
// then the httpx parser and key, then the engine's own spec check where
// one exists without running the request.
var requestRoutes = []struct {
	path     string
	validate func(body []byte) error
}{
	{"/v1/evaluate", func(b []byte) error {
		return decodeThen(b, func(req api.EvaluateRequest) error {
			p, err := EvaluatePoint(req)
			if err != nil {
				return err
			}
			EvaluateKey(req.Network, p)
			return p.Validate()
		})
	}},
	{"/v1/sweep", func(b []byte) error { return decodeThen(b, validateSweep) }},
	{"/v1/map", func(b []byte) error {
		return decodeThen(b, func(req api.MapRequest) error {
			spec, err := MapSpec(req)
			if err != nil {
				return err
			}
			MapKey(spec)
			return spec.Point.Validate()
		})
	}},
	{"/v1/robustness", func(b []byte) error { return decodeThen(b, validateRobustness) }},
	{"/v1/infer", func(b []byte) error {
		return decodeThen(b, func(req api.InferRequest) error {
			_, err := InferNetwork(req, pixel.InferNetworkShape)
			return err
		})
	}},
	{"/v1/jobs", func(b []byte) error {
		// The factory re-decodes the spec by kind, as the registry does
		// at submission.
		return decodeThen(b, func(req api.JobRequest) error {
			spec, err := jobSpec(req)
			if err != nil {
				return err
			}
			_, err = JobFactory(
				func(req api.RobustnessRequest) (jobs.Task, error) { return nil, validateRobustness(req) },
				func(req api.SweepRequest) (jobs.Task, error) { return nil, validateSweep(req) },
			)(req.Kind, spec)
			return err
		})
	}},
}

func decodeThen[Req any](body []byte, validate func(Req) error) error {
	var req Req
	if err := StrictUnmarshal(body, &req); err != nil {
		return err
	}
	return validate(req)
}

func validateSweep(req api.SweepRequest) error {
	designs, _, err := SweepDesigns(req)
	if err != nil {
		return err
	}
	SweepKey(req, designs)
	return pixel.ValidateSweep(req.Networks, pixel.Grid(designs, req.Lanes, req.Bits))
}

func validateRobustness(req api.RobustnessRequest) error {
	spec, err := RobustnessSpec(req, DefaultMaxTrials)
	if err != nil {
		return err
	}
	RobustnessKey(req)
	return pixel.ValidateRobustness(spec)
}

// FuzzRequestBodies drives arbitrary bytes through each /v1 route's
// decode and validation: it must never panic, and every rejection must
// classify as a 4xx — a hostile body is the caller's fault, never an
// internal error. The checked-in corpus holds the pinned rejections of
// internal/server/testdata/errors.golden.json plus accepted bodies.
func FuzzRequestBodies(f *testing.F) {
	for i, body := range []string{
		`{"network":"LeNet","design":"OO","lanes":4,"bits":8}`,
		`{"networks":["LeNet","AlexNet"],"designs":["EE","OO"],"lanes":[4],"bits":[8,16]}`,
		`{"network":"LeNet","design":"OO","lanes":4,"bits":8,"rows":4,"cols":4}`,
		`{"network":"LeNet","design":"OO","sigmas":[0.01,0.02],"trials":4,"protection":{"scheme":"tmr"}}`,
		`{"network":"tiny","images":[[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]]}`,
		`{"kind":"sweep","sweep":{"networks":["LeNet"],"lanes":[4],"bits":[8]}}`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	var core Core
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := requestRoutes[int(route)%len(requestRoutes)]
		err := r.validate(body)
		if err == nil {
			return
		}
		if status, detail := core.classify(err); status < http.StatusBadRequest || status >= http.StatusInternalServerError {
			t.Fatalf("%s %q: rejected as %d %s: %v", r.path, body, status, detail.Code, err)
		}
	})
}
