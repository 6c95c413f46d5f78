package httpx

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pixel/api"
	"pixel/internal/jobs"
)

// The durable job routes, identical on both roles — what a job does is
// the registry's task factory, not the routes' business:
//
//	POST   /v1/jobs              submit a robustness or sweep job
//	GET    /v1/jobs/{id}         status + partial results
//	GET    /v1/jobs/{id}/events  server-sent event stream
//	DELETE /v1/jobs/{id}         cancel / forget

// jobsDisabled is the 501 every job route answers when the registry is
// not configured.
func (c *Core) jobsDisabled(w http.ResponseWriter) bool {
	if c.cfg.Jobs != nil {
		return false
	}
	c.WriteError(w, &Error{
		Status: http.StatusNotImplemented,
		Code:   "not_implemented",
		Msg:    "durable jobs are not enabled on this server",
	})
	return true
}

func (c *Core) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if c.jobsDisabled(w) {
		return
	}
	var req api.JobRequest
	if err := DecodeJSON(w, r, &req); err != nil {
		c.WriteError(w, err)
		return
	}
	var spec any
	switch req.Kind {
	case api.JobKindRobustness:
		if req.Robustness == nil {
			c.WriteError(w, BadRequestf("kind %q requires a robustness spec", req.Kind))
			return
		}
		spec = req.Robustness
	case api.JobKindSweep:
		if req.Sweep == nil {
			c.WriteError(w, BadRequestf("kind %q requires a sweep spec", req.Kind))
			return
		}
		spec = req.Sweep
	default:
		c.WriteError(w, BadRequestf("unknown job kind %q (have %q, %q)", req.Kind, api.JobKindRobustness, api.JobKindSweep))
		return
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		c.WriteError(w, fmt.Errorf("encode job spec: %w", err))
		return
	}
	j, err := c.cfg.Jobs.Create(req.Kind, buf)
	if err != nil {
		c.WriteError(w, err)
		return
	}
	c.jobsCreated.Add(1)
	st := c.cfg.Jobs.Snapshot(j)
	WriteJSON(w, http.StatusAccepted, api.JobHandle{ID: j.ID, Kind: j.Kind, State: string(st.State)})
}

// jobByPath resolves {id}; a miss writes the 404 and returns nil.
func (c *Core) jobByPath(w http.ResponseWriter, r *http.Request) *jobs.Job {
	id := r.PathValue("id")
	j, ok := c.cfg.Jobs.Get(id)
	if !ok {
		c.WriteError(w, &Error{Status: http.StatusNotFound, Code: "not_found", Msg: fmt.Sprintf("no job %q", id)})
		return nil
	}
	return j
}

func (c *Core) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if c.jobsDisabled(w) {
		return
	}
	j := c.jobByPath(w, r)
	if j == nil {
		return
	}
	st := c.cfg.Jobs.Snapshot(j)
	resp := api.JobStatusResponse{
		ID:          st.ID,
		Kind:        st.Kind,
		State:       string(st.State),
		Done:        st.Done,
		Total:       st.Total,
		CreatedUnix: st.CreatedUnix,
		Adopted:     st.Adopted,
		Error:       st.Error,
		Result:      json.RawMessage(st.Result),
	}
	if st.Partial != nil {
		if buf, err := json.Marshal(st.Partial); err == nil {
			resp.Partial = buf
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (c *Core) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if c.jobsDisabled(w) {
		return
	}
	if err := c.cfg.Jobs.Delete(r.PathValue("id")); err != nil {
		c.WriteError(w, &Error{Status: http.StatusNotFound, Code: "not_found", Msg: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobEvents streams the job's event log as server-sent events:
// replay from Last-Event-ID, comment heartbeats, stream closes after
// the terminal event.
func (c *Core) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if c.jobsDisabled(w) {
		return
	}
	j := c.jobByPath(w, r)
	if j == nil {
		return
	}
	err := c.cfg.Jobs.StreamEvents(w, r, j, func(st jobs.JobStatus) any {
		return api.JobProgress{Done: st.Done, Total: st.Total, Error: st.Error}
	})
	if err != nil {
		c.WriteError(w, err)
	}
}
