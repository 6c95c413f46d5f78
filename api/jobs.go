package api

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pixel"
)

// Job kinds accepted by POST /v1/jobs.
const (
	JobKindRobustness = "robustness"
	JobKindSweep      = "sweep"
)

// Job states reported by GET /v1/jobs/{id}.
const (
	JobStateQueued    = "queued"
	JobStateRunning   = "running"
	JobStateSucceeded = "succeeded"
	JobStateFailed    = "failed"
	JobStateCancelled = "cancelled"
)

// Job event types on GET /v1/jobs/{id}/events. "progress" carries a
// JobProgress, "point" a JobPoint (robustness jobs only), "adopted" a
// JobProgress (emitted once when a restarted server re-adopts the job
// from its checkpoint), and the three terminal types carry a
// JobProgress plus an error message for "failed".
const (
	JobEventProgress  = "progress"
	JobEventPoint     = "point"
	JobEventAdopted   = "adopted"
	JobEventSucceeded = "succeeded"
	JobEventFailed    = "failed"
	JobEventCancelled = "cancelled"
)

// JobRequest is the POST /v1/jobs body: exactly one spec matching
// Kind. The specs reuse the synchronous routes' request types, so
// anything POST /v1/robustness accepts can also run as a durable job.
type JobRequest struct {
	Kind       string             `json:"kind"`
	Robustness *RobustnessRequest `json:"robustness,omitempty"`
	Sweep      *SweepRequest      `json:"sweep,omitempty"`
}

// JobHandle is the POST /v1/jobs response (202 Accepted): the id to
// poll, stream or cancel with.
type JobHandle struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
}

// JobStatusResponse is the GET /v1/jobs/{id} response. Result is the
// job's final payload once State is "succeeded" (a RobustnessResponse
// or SweepResponse by Kind); Partial carries the work completed so far
// on a running job — a []JobPoint of σ points for a robustness job, a
// []JobCell of priced grid cells for a sweep job. Adopted marks a job
// re-adopted from its checkpoint after a server restart.
type JobStatusResponse struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Done        int             `json:"done"`
	Total       int             `json:"total"`
	CreatedUnix int64           `json:"created_unix"`
	Adopted     bool            `json:"adopted,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Partial     json.RawMessage `json:"partial,omitempty"`
}

// JobProgress is the data payload of "progress", "adopted" and
// terminal events: completed and total unit counts (trials for
// robustness jobs, grid cells for sweeps). Error rides along on
// "failed" events.
type JobProgress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

// JobPoint is the data payload of "point" events: one σ point of a
// robustness job's yield curve, delivered as soon as all of its trials
// complete. Index is the point's position on the request's sigma axis.
type JobPoint struct {
	Index     int                   `json:"index"`
	Point     pixel.YieldPoint      `json:"point"`
	Protected *pixel.ProtectedPoint `json:"protected,omitempty"`
}

// JobCell is one priced grid cell of a sweep job, reported in
// GET /v1/jobs/{id}'s partial while the job runs. Index is the cell's
// position on the request's point grid (the row it will occupy in the
// final SweepResponse's per-network slice). Cells are listed sorted by
// network, then index. There is deliberately no per-cell SSE event —
// a sweep can have tens of thousands of cells, which would swamp the
// replayable event log; poll GET /v1/jobs/{id} instead.
type JobCell struct {
	Network string `json:"network"`
	Index   int    `json:"index"`
	Result  Result `json:"result"`
}

// JobEvent is one server-sent event from GET /v1/jobs/{id}/events.
// Seq is the SSE id — pass it as Last-Event-ID (or JobEvents' lastSeq)
// when reconnecting and the stream resumes with no gap.
type JobEvent struct {
	Seq  int64           `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Terminal reports whether the event ends the stream.
func (e JobEvent) Terminal() bool {
	switch e.Type {
	case JobEventSucceeded, JobEventFailed, JobEventCancelled:
		return true
	}
	return false
}

// CreateJob submits a durable job and returns its handle. The work
// runs server-side, survives server restarts via checkpoints, and is
// observed with Job, JobEvents or cancelled with DeleteJob.
func (c *Client) CreateJob(ctx context.Context, req JobRequest) (JobHandle, error) {
	var out JobHandle
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Job fetches a job's status, partial results included.
func (c *Client) Job(ctx context.Context, id string) (JobStatusResponse, error) {
	var out JobStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// DeleteJob cancels a running job (its checkpoint is discarded) or
// forgets a finished one.
func (c *Client) DeleteJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil)
}

// JobEvents opens the job's server-sent event stream. lastSeq resumes
// after a previously seen event (pass -1 for the full stream); the
// server replays everything newer, so a client that reconnects with
// its last seq misses nothing. Iterate with Next until a Terminal
// event or error; Close the stream when done.
//
// A stream cut before a terminal event reconnects transparently: Next
// re-opens the stream with the last delivered seq (bounded attempts,
// short exponential backoff, honoring ctx) and the server's replay
// makes the resumed stream gap-free. Only when the attempts are
// exhausted does Next surface the original stream error.
func (c *Client) JobEvents(ctx context.Context, id string, lastSeq int64) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, fmt.Errorf("api: build request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastSeq >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer closeBody(resp.Body)
		return nil, decodeError(resp)
	}
	return &EventStream{
		body: resp.Body, sc: bufio.NewScanner(resp.Body), lastSeq: -1,
		c: c, ctx: ctx, id: id, resume: lastSeq,
	}, nil
}

// Stream-reconnect budget: how many times one silent gap may re-open
// the stream before Next gives up, and the backoff bounds between
// attempts. The counter resets whenever an event is delivered.
const maxStreamReconnects = 5

const (
	streamReconnectBase = 50 * time.Millisecond
	streamReconnectMax  = 1 * time.Second
)

// EventStream iterates a text/event-stream response. It is not safe
// for concurrent use.
type EventStream struct {
	body    io.Closer
	sc      *bufio.Scanner
	lastSeq int64

	// Reconnect state: the owning client, the open context and job id
	// to re-dial with, the seq to resume from (the open's lastSeq until
	// an event is delivered), and the per-gap attempt counter.
	c           *Client
	ctx         context.Context
	id          string
	resume      int64
	reconnects  int
	sawTerminal bool
}

// LastSeq returns the seq of the last event Next delivered (-1 before
// the first) — the value to hand back to JobEvents when reconnecting.
func (s *EventStream) LastSeq() int64 { return s.lastSeq }

// Close releases the underlying connection.
func (s *EventStream) Close() error { return s.body.Close() }

// Next blocks for the next event. Heartbeat comments are skipped
// transparently. A stream cut before a terminal event is re-opened in
// place with the last delivered seq (see JobEvents); Next returns
// io.EOF only when the server ends the stream after a Terminal event,
// and the underlying error once the reconnect budget is spent.
func (s *EventStream) Next() (JobEvent, error) {
	for {
		ev, err := s.scanNext()
		if err == nil {
			s.reconnects = 0
			if ev.Seq >= 0 {
				s.resume = ev.Seq
			}
			if ev.Terminal() {
				s.sawTerminal = true
			}
			return ev, nil
		}
		if s.sawTerminal || s.c == nil || s.ctx == nil || s.ctx.Err() != nil {
			return JobEvent{}, err
		}
		if !s.reconnect() {
			return JobEvent{}, err
		}
	}
}

// reconnect re-opens the stream resuming after the last delivered
// event, with exponential backoff between attempts. It reports whether
// a fresh stream was adopted; the per-gap attempt counter persists
// across calls so a dead server cannot be redialed forever.
func (s *EventStream) reconnect() bool {
	for s.reconnects < maxStreamReconnects {
		s.reconnects++
		d := streamReconnectBase << (s.reconnects - 1)
		if d > streamReconnectMax {
			d = streamReconnectMax
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
			return false
		}
		ns, err := s.c.JobEvents(s.ctx, s.id, s.resume)
		if err != nil {
			continue
		}
		s.body.Close()
		s.body, s.sc = ns.body, ns.sc
		return true
	}
	return false
}

// scanNext parses the next event block off the current connection.
func (s *EventStream) scanNext() (JobEvent, error) {
	ev := JobEvent{Seq: -1}
	var data strings.Builder
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			// Dispatch boundary — but only if the block carried a field;
			// a heartbeat comment followed by a blank line is skipped.
			if ev.Seq >= 0 || ev.Type != "" || data.Len() > 0 {
				if data.Len() > 0 {
					ev.Data = json.RawMessage(data.String())
				}
				if ev.Seq >= 0 {
					s.lastSeq = ev.Seq
				}
				return ev, nil
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id:"):
			seq, err := strconv.ParseInt(strings.TrimSpace(line[len("id:"):]), 10, 64)
			if err != nil {
				return JobEvent{}, fmt.Errorf("api: bad event id %q", line)
			}
			ev.Seq = seq
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
	if err := s.sc.Err(); err != nil {
		return JobEvent{}, err
	}
	return JobEvent{}, io.EOF
}
