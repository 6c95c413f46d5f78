package fleet

import (
	"context"
	"net/http"

	"pixel/api"
	"pixel/internal/httpx"
)

// AddWorker admits a new fleet member at runtime and rebuilds the
// consistent-hash ring. The membership swap is copy-on-write: shards
// already in flight keep the candidate snapshot they routed with, so
// nothing is dropped — only new shards see the new ring. The worker
// starts healthy (optimistically, like the initial set) and is probed
// from the next sweep.
func (c *Coordinator) AddWorker(addr string) error {
	if addr == "" {
		return httpx.BadRequestf("worker address must be non-empty")
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	for _, w := range c.members {
		if w.name == addr {
			return &httpx.Error{Status: http.StatusConflict, Code: "conflict",
				Msg: "worker " + addr + " is already a fleet member"}
		}
	}
	members := make([]*worker, 0, len(c.members)+1)
	members = append(members, c.members...)
	members = append(members, c.newWorker(addr))
	c.members = members
	c.ring = newRing(memberNames(members))
	c.metrics.workersAdded.Add(1)
	c.logger.Info("fleet: worker added", "worker", addr, "members", len(members))
	return nil
}

// RemoveWorker retires a member and rebuilds the ring. In-flight
// shards holding the old candidate snapshot may still complete on the
// removed worker; the keys it owned move to its ring successors for
// everything planned afterwards. The last member cannot be removed —
// a coordinator with no workers serves nothing.
func (c *Coordinator) RemoveWorker(addr string) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	idx := -1
	for i, w := range c.members {
		if w.name == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return &httpx.Error{Status: http.StatusNotFound, Code: "not_found",
			Msg: "no fleet member " + addr}
	}
	if len(c.members) == 1 {
		return &httpx.Error{Status: http.StatusConflict, Code: "conflict",
			Msg: "cannot remove the last fleet member"}
	}
	members := make([]*worker, 0, len(c.members)-1)
	members = append(members, c.members[:idx]...)
	members = append(members, c.members[idx+1:]...)
	c.members = members
	c.ring = newRing(memberNames(members))
	c.metrics.workersRemoved.Add(1)
	c.logger.Info("fleet: worker removed", "worker", addr, "members", len(members))
	return nil
}

// Workers snapshots the roster with each member's health and breaker
// state — the GET /v1/fleet/workers payload.
func (c *Coordinator) Workers() []api.FleetWorker {
	members, _ := c.membership()
	out := make([]api.FleetWorker, 0, len(members))
	for _, w := range members {
		out = append(out, api.FleetWorker{
			Addr:    w.name,
			Healthy: w.healthy.Load(),
			Breaker: w.br.status(),
		})
	}
	return out
}

func memberNames(members []*worker) []string {
	names := make([]string, len(members))
	for i, w := range members {
		names[i] = w.name
	}
	return names
}

// breakersOpen counts members whose breaker currently refuses calls
// (the /metrics gauge).
func (c *Coordinator) breakersOpen() int {
	members, _ := c.membership()
	n := 0
	for _, w := range members {
		if w.br.isOpen() {
			n++
		}
	}
	return n
}

func (c *Coordinator) handleWorkersList(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, api.FleetWorkersResponse{Workers: c.Workers()})
}

// roster serves a membership change through the one request path:
// apply op to the body's address, then answer with the updated roster.
// The address rides in the body (worker addresses are URLs — a path
// segment would need double escaping).
func (c *Coordinator) roster(op func(addr string) error) http.HandlerFunc {
	return httpx.Route(c.core, 0, func(_ context.Context, req api.FleetWorkerRequest) (api.FleetWorkersResponse, error) {
		if err := op(req.Addr); err != nil {
			return api.FleetWorkersResponse{}, err
		}
		return api.FleetWorkersResponse{Workers: c.Workers()}, nil
	})
}
