// Package httpx is the HTTP core both pixeld roles serve the /v1
// surface through: the worker (internal/server) and the fleet
// coordinator (internal/fleet). It owns the uniform error envelope and
// its sentinel table, strict body and job-spec decoding, the one
// request path of every /v1 route (Route) with each body's parser and
// key (validate.go), the instrumented mux with its request metrics and
// logs, /healthz, /metrics, the catalog routes, the four /v1/jobs
// routes and their task factory, and the graceful Serve/drain loop —
// one copy, so a fix reaches both roles.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/jobs"
	"pixel/internal/metrics"
	"pixel/internal/resultjson"
)

// StatusClientClosedRequest is the nginx-convention status recorded
// when the client hung up before the response was ready; nothing
// reaches the wire, but logs and counters need a code.
const StatusClientClosedRequest = 499

// durationBuckets are the request-latency histogram bounds [s]: the
// cached engine path is ~55µs, a cold single evaluate a few hundred
// µs, and a large multi-network sweep can run into seconds.
var durationBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Error carries an explicit status and wire code for failures that
// have no engine sentinel: request-shape errors (bad JSON, missing
// fields), unconfigured routes, membership conflicts.
type Error struct {
	Status int
	Code   string
	Msg    string
	// RetryAfterS is the Retry-After hint [s] sent with the error; 0
	// sends none, except that a 429 gets the role's hint.
	RetryAfterS int
}

func (e *Error) Error() string { return e.Msg }

// BadRequestf is the 400 bad_request error.
func BadRequestf(format string, args ...any) error {
	return &Error{Status: http.StatusBadRequest, Code: "bad_request", Msg: fmt.Sprintf(format, args...)}
}

// errorTable is the single sentinel -> (HTTP status, wire code)
// mapping every route renders errors through; first errors.Is match
// wins. Codes are part of the versioned wire contract (api.Error).
var errorTable = []struct {
	is     error
	status int
	code   string
}{
	{jobs.ErrRegistryFull, http.StatusTooManyRequests, "overloaded"},
	{jobs.ErrBadLastEventID, http.StatusBadRequest, "bad_request"},
	{pixel.ErrUnknownNetwork, http.StatusNotFound, "unknown_network"},
	{pixel.ErrUnknownDesign, http.StatusBadRequest, "unknown_design"},
	{pixel.ErrBadPrecision, http.StatusBadRequest, "bad_precision"},
	{pixel.ErrBadGrid, http.StatusBadRequest, "bad_grid"},
	{pixel.ErrBadSpec, http.StatusBadRequest, "bad_spec"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
	{context.Canceled, StatusClientClosedRequest, "client_closed_request"},
}

// Config wires a Core into its role.
type Config struct {
	// Prefix names the role's metric families ("pixeld", "pixelfleet").
	Prefix string
	// Metrics is the role's registry; the core adds its request,
	// latency, in-flight and jobs families to it.
	Metrics *metrics.Registry
	// Shed, when set, counts every 429 answered.
	Shed *metrics.Counter
	// RetryAfterS is the Retry-After hint [s] on 429s the role raises
	// itself (worker errors passed through keep their own).
	RetryAfterS int
	// Jobs serves /v1/jobs; nil answers those routes with 501.
	Jobs *jobs.Registry
	// Logger receives the request log and lifecycle messages.
	Logger *slog.Logger
}

// Core is one role's HTTP front: its envelope, instrumentation, shared
// routes and lifecycle.
type Core struct {
	cfg Config

	// Draining flips once Serve begins its graceful shutdown; /healthz
	// then answers 503 "draining" so routers stop sending new work.
	Draining atomic.Bool

	inFlight    atomic.Int64
	requests    *metrics.CounterVec
	durations   *metrics.HistogramVec
	jobsCreated *metrics.Counter
}

// New builds a Core and, when cfg.Jobs is set, re-adopts the jobs
// persisted in the registry's directory.
func New(cfg Config) *Core {
	c := &Core{cfg: cfg}
	p, m := cfg.Prefix, cfg.Metrics
	m.GaugeFunc(p+"_in_flight", "HTTP requests currently being served.", c.inFlight.Load)
	c.requests = m.CounterVec(p+"_requests_total", "Completed HTTP requests by route and status code.", "route", "code")
	c.durations = m.HistogramVec(p+"_request_duration_seconds", "HTTP request latency by route.", durationBuckets, "route")
	c.jobsCreated = m.Counter(p+"_jobs_created_total", "Durable jobs admitted via POST /v1/jobs.")
	jobsResumed := m.Counter(p+"_jobs_resumed_total", "Jobs re-adopted from checkpoints at startup.")
	if cfg.Jobs != nil {
		resumed, err := cfg.Jobs.Recover()
		if err != nil {
			cfg.Logger.Warn("job recovery failed", "err", err)
		}
		if resumed > 0 {
			cfg.Logger.Info("re-adopted unfinished jobs", "resumed", resumed)
			jobsResumed.Add(int64(resumed))
		}
	}
	return c
}

// classify maps an error to its HTTP status and wire detail. A
// worker's HTTP error (seen by the coordinator) passes through with
// its original status, code and retry hint, so clients cannot tell a
// coordinator from a single node by its failures; then explicit
// *Errors, then the sentinel table, else 500.
func (c *Core) classify(err error) (int, api.Error) {
	var he *api.HTTPError
	if errors.As(err, &he) {
		return he.Status, api.Error{Code: he.Code, Message: he.Message, RetryAfterS: he.RetryAfterS}
	}
	status, detail := http.StatusInternalServerError, api.Error{Code: "internal", Message: err.Error()}
	var le *Error
	if errors.As(err, &le) {
		status, detail.Code, detail.RetryAfterS = le.Status, le.Code, le.RetryAfterS
	} else {
		for _, e := range errorTable {
			if errors.Is(err, e.is) {
				status, detail.Code = e.status, e.code
				break
			}
		}
	}
	if status == http.StatusTooManyRequests && detail.RetryAfterS == 0 {
		detail.RetryAfterS = c.cfg.RetryAfterS
	}
	return status, detail
}

// WriteError renders err as the uniform api.ErrorEnvelope every route
// shares, with a Retry-After header matching the envelope's hint.
func (c *Core) WriteError(w http.ResponseWriter, err error) {
	status, detail := c.classify(err)
	if status == http.StatusTooManyRequests && c.cfg.Shed != nil {
		c.cfg.Shed.Add(1)
	}
	if detail.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(detail.RetryAfterS))
	}
	WriteJSON(w, status, api.ErrorEnvelope{Error: detail})
}

// WriteJSON writes v with the one encoder setting (two-space indent)
// both roles share: merged fleet responses must be byte-identical to
// single-node ones, and the framing is part of that. The body is
// encoded in full before the status goes out, so a value that cannot
// be encoded (a NaN or infinite float) answers 500 "internal" rather
// than a success with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufs.Get().(*[]byte)
	defer respBufs.Put(buf)
	body, err := encodeBody((*buf)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeBody(body[:0], api.ErrorEnvelope{Error: api.Error{
			Code: "internal", Message: "encode response: " + err.Error()}})
	}
	*buf = body
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client is gone if this fails; nothing to do
}

// respBufs recycles the buffers response bodies are encoded into.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeBody appends v's indented JSON and a newline to dst. A sweep
// response or a result takes resultjson's appender, which writes
// encoding/json's exact bytes without reflection; every other value,
// and one the appender gives up on (a non-finite float, whose error
// encoding/json reports), goes through encoding/json.
func encodeBody(dst []byte, v any) ([]byte, error) {
	var ok bool
	switch v := v.(type) {
	case api.SweepResponse:
		dst, ok = resultjson.AppendSweep(dst, v.Points, v.Results)
	case pixel.Result:
		dst, ok = resultjson.AppendResult(dst, &v)
	}
	if ok {
		return dst, nil
	}
	out := bytes.NewBuffer(dst[:0])
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return dst[:0], err
	}
	return out.Bytes(), nil
}

// decodeStrict decodes exactly one JSON value from r into dst: unknown
// fields are rejected so schema typos fail loudly instead of silently
// evaluating defaults, and anything after the value but whitespace is
// rejected so a second value cannot hide behind the first.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// DecodeJSON parses a bounded request body strictly. An infer body
// takes decodeInfer, which parses the common case without reflection
// and answers every other body exactly as decodeStrict does.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var err error
	if req, ok := dst.(*api.InferRequest); ok {
		err = decodeInfer(r.Body, req)
	} else {
		err = decodeStrict(r.Body, dst)
	}
	if err != nil {
		return BadRequestf("bad request body: %v", err)
	}
	return nil
}

// Route is the one request path of a synchronous /v1 route on both
// roles: decode the body strictly, bound run by timeout (none when
// timeout is 0), then answer with run's response or its error
// envelope. run validates, keys and executes the request.
func Route[Req, Resp any](c *Core, timeout time.Duration, run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := DecodeJSON(w, r, &req); err != nil {
			c.WriteError(w, err)
			return
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		resp, err := run(ctx, req)
		if err != nil {
			c.WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// NotImplemented answers a route the role was built without with 501
// not_implemented, before reading the body.
func (c *Core) NotImplemented(msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.WriteError(w, &Error{Status: http.StatusNotImplemented, Code: "not_implemented", Msg: msg})
	}
}

// StrictUnmarshal is DecodeJSON's body-less twin for job specs: bad
// specs fail loudly at submission, not at some later re-adoption.
func StrictUnmarshal(spec []byte, dst any) error {
	if err := decodeStrict(bytes.NewReader(spec), dst); err != nil {
		return BadRequestf("bad job spec: %v", err)
	}
	return nil
}

// statusRecorder captures the status code and body size a handler
// writes, for the request log and the route/code counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming support so SSE handlers can push events
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the in-flight gauge, per-route
// request/latency metrics and a structured log line per request.
// route is the metric label (the registration pattern without the
// method).
func (c *Core) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		c.inFlight.Add(1)
		defer c.inFlight.Add(-1)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)

		elapsed := time.Since(start)
		c.requests.Inc(route, strconv.Itoa(rec.status))
		c.durations.Observe(elapsed.Seconds(), route)
		c.cfg.Logger.Info("request",
			"method", r.Method,
			"route", route,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	})
}

// Mux returns the routing tree: the role's routes (pattern → handler)
// plus the routes both roles serve identically, all instrumented.
func (c *Core) Mux(routes map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	shared := map[string]http.HandlerFunc{
		"GET /healthz":     c.handleHealthz,
		"GET /metrics":     c.handleMetrics,
		"GET /v1/networks": handleNetworks,
		"GET /v1/designs":  handleDesigns,
	}
	jobRoutes := map[string]http.HandlerFunc{
		"POST /v1/jobs":            c.handleJobCreate,
		"GET /v1/jobs/{id}":        c.handleJobGet,
		"DELETE /v1/jobs/{id}":     c.handleJobDelete,
		"GET /v1/jobs/{id}/events": c.handleJobEvents,
	}
	if c.cfg.Jobs == nil {
		for pattern := range jobRoutes {
			jobRoutes[pattern] = c.NotImplemented("durable jobs are not enabled on this server")
		}
	}
	for _, set := range []map[string]http.HandlerFunc{shared, jobRoutes, routes} {
		for pattern, h := range set {
			_, route, _ := strings.Cut(pattern, " ")
			mux.Handle(pattern, c.instrument(route, h))
		}
	}
	return mux
}

// Serve runs h on ln until ctx is cancelled, then drains in-flight
// requests for at most drain before forcing connections closed, and
// finally runs closed (the role's own shutdown). It returns once
// shutdown completes (nil on a clean drain).
func (c *Core) Serve(ctx context.Context, ln net.Listener, drain time.Duration, h http.Handler, closed func()) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(c.cfg.Logger.Handler(), slog.LevelWarn),
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		c.Draining.Store(true)
		c.cfg.Logger.Info("shutting down", "drain", drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- hs.Shutdown(dctx)
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	err := <-shutdownErr
	closed()
	return err
}

func (c *Core) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A draining role answers 503 "draining" so load balancers and the
	// fleet coordinator stop routing to it while its in-flight requests
	// finish; the body still carries the status word for probers that
	// want to tell "shutting down" from "gone".
	if c.Draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Status: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
}

func (c *Core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.cfg.Metrics.Write(w)
}

// The catalog routes answer locally on both roles: the coordinator
// links the same model zoo and design table as its workers.
func handleNetworks(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, api.NetworksResponse{Networks: pixel.Networks()})
}

func handleDesigns(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, 3)
	for _, d := range pixel.Designs() {
		names = append(names, d.String())
	}
	WriteJSON(w, http.StatusOK, api.DesignsResponse{Designs: names})
}
