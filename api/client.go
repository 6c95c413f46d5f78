package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pixel/internal/resultjson"
)

// HTTPError is a non-2xx pixeld response decoded from the uniform
// error envelope.
type HTTPError struct {
	// Status is the HTTP status code.
	Status int
	// Code and Message are the envelope's machine and human halves.
	Code    string
	Message string
	// RetryAfterS is the server's retry hint in seconds (429 only).
	RetryAfterS int
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("pixeld: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Temporary reports whether the response is worth retrying: the server
// shed the request (429) or is draining/unavailable (503). Everything
// else — bad requests, unknown networks, internal errors — is not
// fixed by waiting.
func (e *HTTPError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryPolicy configures WithRetry. Every pixeld /v1 route is a pure
// function of its request, so retrying is always safe; the policy only
// decides how patiently.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, the first included;
	// <= 0 means DefaultRetryAttempts.
	MaxAttempts int
	// BaseDelay is the first backoff sleep; it doubles per retry.
	// <= 0 means DefaultRetryBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 means DefaultRetryMaxDelay. A
	// server Retry-After hint above the cap is honored anyway — the
	// server knows its own drain better than the client's policy does.
	MaxDelay time.Duration
}

// Retry policy defaults.
const (
	DefaultRetryAttempts  = 4
	DefaultRetryBaseDelay = 50 * time.Millisecond
	DefaultRetryMaxDelay  = 2 * time.Second
)

// ClientOption customizes a Client at construction.
type ClientOption func(*Client)

// WithRetry makes every request method retry transport failures and
// retryable statuses (429 with its Retry-After hint honored, and 503)
// with exponential backoff, bounded by the policy's attempt budget and
// the request context. Non-retryable statuses (400, 404, 500, ...)
// fail immediately. JobEvents streams have their own reconnect loop
// (see EventStream.Next) and ignore this policy.
func WithRetry(p RetryPolicy) ClientOption {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMaxDelay
	}
	return func(c *Client) { c.retry = &p }
}

// Client is a thin pixeld client speaking the /v1 wire types. The zero
// value is not usable; construct with NewClient. Methods return
// *HTTPError for non-2xx responses.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
}

// NewClient returns a client for the pixeld instance at baseURL (e.g.
// "http://localhost:8080"). hc may be nil for http.DefaultClient.
func NewClient(baseURL string, hc *http.Client, opts ...ClientOption) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// do issues one request (retried under the client's policy, when set)
// and decodes the response into out (skipped when out is nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if c.retry == nil {
		return c.doOnce(ctx, method, path, in, out)
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.retryDelay(attempt, lastErr)); err != nil {
				return lastErr
			}
		}
		lastErr = c.doOnce(ctx, method, path, in, out)
		if lastErr == nil || !retryable(ctx, lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// retryDelay is the sleep before try `attempt` (1-based over the
// retries): exponential from BaseDelay capped at MaxDelay, overridden
// upward by the server's Retry-After hint.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	d := c.retry.BaseDelay << (attempt - 1)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	var he *HTTPError
	if errors.As(lastErr, &he) && he.RetryAfterS > 0 {
		if hint := time.Duration(he.RetryAfterS) * time.Second; hint > d {
			d = hint
		}
	}
	return d
}

// retryable classifies an attempt failure: transport errors and
// Temporary HTTP statuses retry; context ends and request-shape
// failures do not.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Temporary()
	}
	// Encode/decode failures are deterministic; everything else from
	// http.Client.Do is a transport-level failure worth retrying.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var decodeErr *clientError
	return !errors.As(err, &decodeErr)
}

// clientError marks deterministic client-side failures (encode/decode)
// that must not be retried.
type clientError struct{ err error }

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }

// sleepCtx blocks for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce issues one request and decodes the response into out (skipped
// when out is nil). Non-2xx responses decode the error envelope.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return &clientError{fmt.Errorf("api: encode request: %w", err)}
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return &clientError{fmt.Errorf("api: build request: %w", err)}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp.Body)
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := decodeBody(resp.Body, out); err != nil {
		return &clientError{fmt.Errorf("api: decode response: %w", err)}
	}
	return nil
}

// maxDrain bounds how much of an unread response body closeBody reads
// to keep the connection; a longer tail costs the connection instead.
const maxDrain = 256 << 10

// closeBody reads what is left of a response body, up to maxDrain
// bytes, and closes it. A body closed before EOF takes its keep-alive
// connection with it, so every call would dial afresh.
func closeBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	body.Close()
}

// decodeError reads a non-2xx response's error envelope into an
// *HTTPError; a body that is not an envelope gives code "unknown" and
// the status line.
func decodeError(resp *http.Response) *HTTPError {
	he := &HTTPError{Status: resp.StatusCode}
	var env ErrorEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err == nil {
		he.Code = env.Error.Code
		he.Message = env.Error.Message
		he.RetryAfterS = env.Error.RetryAfterS
	} else {
		he.Code = "unknown"
		he.Message = resp.Status
	}
	return he
}

// bodyBufs recycles the buffers success bodies are read into; a
// decoded value keeps nothing of its buffer.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads a success body to EOF and decodes its JSON value
// into the zero value *out. A sweep response or result in the form
// servers write takes resultjson's parser; every other body, and any
// body whose read failed, is replayed through encoding/json, so every
// value and error text is encoding/json's (FuzzResultCodec pins the
// two together).
func decodeBody(body io.Reader, out any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err == nil && parseCanonical(buf.Bytes(), out) {
		return nil
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), body)).Decode(out)
}

// parseCanonical parses b into out without reflection when out is a
// type resultjson reads and b is in its canonical form.
func parseCanonical(b []byte, out any) bool {
	switch out := out.(type) {
	case *SweepResponse:
		points, results, ok := resultjson.ParseSweep(b)
		if ok {
			*out = SweepResponse{Points: points, Results: results}
		}
		return ok
	case *Result:
		r, ok := resultjson.ParseResult(b)
		if ok {
			*out = r
		}
		return ok
	}
	return false
}

// Evaluate prices one design point of one network.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (Result, error) {
	var out Result
	err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out)
	return out, err
}

// Sweep evaluates a design-point grid across one or more networks.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error) {
	var out SweepResponse
	err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out)
	return out, err
}

// Map schedules a network onto a tile grid.
func (c *Client) Map(ctx context.Context, req MapRequest) (MapResponse, error) {
	var out MapResponse
	err := c.do(ctx, http.MethodPost, "/v1/map", req, &out)
	return out, err
}

// Robustness runs a Monte-Carlo variation-to-yield sweep.
func (c *Client) Robustness(ctx context.Context, req RobustnessRequest) (RobustnessResponse, error) {
	var out RobustnessResponse
	err := c.do(ctx, http.MethodPost, "/v1/robustness", req, &out)
	return out, err
}

// Infer runs a batch of images through a demo network's quantized
// pipeline on the batched bit-serial engine.
func (c *Client) Infer(ctx context.Context, req InferRequest) (InferResponse, error) {
	var out InferResponse
	err := c.do(ctx, http.MethodPost, "/v1/infer", req, &out)
	return out, err
}

// Networks lists the cost-model CNN zoo.
func (c *Client) Networks(ctx context.Context) ([]string, error) {
	var out NetworksResponse
	err := c.do(ctx, http.MethodGet, "/v1/networks", nil, &out)
	return out.Networks, err
}

// Designs lists the MAC designs.
func (c *Client) Designs(ctx context.Context) ([]string, error) {
	var out DesignsResponse
	err := c.do(ctx, http.MethodGet, "/v1/designs", nil, &out)
	return out.Designs, err
}

// Healthz checks liveness: nil only for a 2xx probe. A draining or
// unreachable server is an error, which is what a load balancer wants.
func (c *Client) Healthz(ctx context.Context) error {
	var out HealthResponse
	return c.do(ctx, http.MethodGet, "/healthz", nil, &out)
}

// Health fetches /healthz and reports the server's own status word
// even on non-2xx probes (a draining pixeld answers 503 with status
// "draining"), so health-aware routers can tell "shutting down" from
// "gone". It never retries, whatever the client's policy — a prober
// wants the answer now.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return HealthResponse{}, fmt.Errorf("api: build request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return HealthResponse{}, err
	}
	defer closeBody(resp.Body)
	var out HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return HealthResponse{}, fmt.Errorf("api: decode health response: %w", err)
	}
	return out, nil
}
