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
//
// A role built without a registry answers all four with 501 (see Mux).

// JobFactory is the jobs.Factory of both roles: it strictly decodes a
// spec by its kind and hands it to the role's typed task constructor,
// which validates it with the same limits as the synchronous route (a
// job must not be a way around them).
func JobFactory[R, S jobs.Task](robustness func(api.RobustnessRequest) (R, error), sweep func(api.SweepRequest) (S, error)) jobs.Factory {
	return func(kind string, spec json.RawMessage) (jobs.Task, error) {
		switch kind {
		case api.JobKindRobustness:
			return newTask(spec, robustness)
		case api.JobKindSweep:
			return newTask(spec, sweep)
		}
		return nil, errUnknownJobKind(kind)
	}
}

func newTask[Req any, T jobs.Task](spec json.RawMessage, build func(Req) (T, error)) (jobs.Task, error) {
	var req Req
	if err := StrictUnmarshal(spec, &req); err != nil {
		return nil, err
	}
	t, err := build(req)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func errUnknownJobKind(kind string) error {
	return BadRequestf("unknown job kind %q (have %q, %q)", kind, api.JobKindRobustness, api.JobKindSweep)
}

// jobSpec returns the encoded spec a job request carries for its kind.
func jobSpec(req api.JobRequest) (json.RawMessage, error) {
	var spec any
	switch req.Kind {
	case api.JobKindRobustness:
		if req.Robustness == nil {
			return nil, BadRequestf("kind %q requires a robustness spec", req.Kind)
		}
		spec = req.Robustness
	case api.JobKindSweep:
		if req.Sweep == nil {
			return nil, BadRequestf("kind %q requires a sweep spec", req.Kind)
		}
		spec = req.Sweep
	default:
		return nil, errUnknownJobKind(req.Kind)
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("encode job spec: %w", err)
	}
	return buf, nil
}

func (c *Core) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := DecodeJSON(w, r, &req); err != nil {
		c.WriteError(w, err)
		return
	}
	spec, err := jobSpec(req)
	if err != nil {
		c.WriteError(w, err)
		return
	}
	j, err := c.cfg.Jobs.Create(req.Kind, spec)
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
