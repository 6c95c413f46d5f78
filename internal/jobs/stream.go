package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Sentinel errors StreamEvents returns before writing any response
// bytes, so callers can still render their usual error envelope.
var (
	// ErrCannotStream reports a ResponseWriter without http.Flusher.
	ErrCannotStream = errors.New("jobs: response writer cannot stream")
	// ErrBadLastEventID reports an unparsable Last-Event-ID header.
	ErrBadLastEventID = errors.New("jobs: bad Last-Event-ID")
)

// StreamEvents streams j's event log to w as server-sent events.
// Events are replayed from the request's Last-Event-ID (every event
// since process start is retained, and seqs stay monotone across
// restarts), comment heartbeats at the registry's Heartbeat cadence
// keep idle connections alive, and the stream closes after the
// terminal event. A job recovered in a terminal state has no terminal
// event in its post-restart log; terminalData supplies the payload of
// the synthesized one so those streams still end. Both pixeld's job
// routes and the fleet coordinator's serve this exact loop, which is
// why it lives here and not in a handler.
func (r *Registry) StreamEvents(w http.ResponseWriter, req *http.Request, j *Job, terminalData func(JobStatus) any) error {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return ErrCannotStream
	}
	last := int64(-1)
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		seq, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%w %q", ErrBadLastEventID, v)
		}
		last = seq
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(r.heartbeat)
	defer ticker.Stop()
	for {
		ch := j.Events.Changed()
		for _, e := range j.Events.After(last) {
			fmt.Fprintf(w, "id: %d\nevent: %s\n", e.Seq, e.Type)
			if len(e.Data) > 0 {
				fmt.Fprintf(w, "data: %s\n", e.Data)
			}
			fmt.Fprint(w, "\n")
			last = e.Seq
			if e.Terminal() {
				flusher.Flush()
				return nil
			}
		}
		if st := r.Snapshot(j); st.State.Terminal() && j.Events.NextSeq() == last+1 {
			data, _ := json.Marshal(terminalData(st))
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", j.Events.NextSeq(), st.State, data)
			flusher.Flush()
			return nil
		}
		flusher.Flush()
		select {
		case <-ch:
		case <-ticker.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-req.Context().Done():
			return nil
		}
	}
}
