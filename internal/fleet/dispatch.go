package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pixel/api"
	"pixel/internal/parallel"
)

// errJobsUnsupported marks a worker fleet that cannot run jobs (an
// older pixeld without the routes, or one started without -jobs):
// the caller falls back to the synchronous shard path.
var errJobsUnsupported = errors.New("fleet: worker does not support jobs")

// jobsUnsupported classifies a worker-job control failure as "this
// worker has no job API" rather than a fault: 501 from a jobs-disabled
// pixeld, 404/405 from a build predating the routes.
func jobsUnsupported(err error) bool {
	var he *api.HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case http.StatusNotImplemented, http.StatusNotFound, http.StatusMethodNotAllowed:
			return true
		}
	}
	return false
}

// runShardJob dispatches one shard sub-request as a job on the shard
// key's ring worker and follows it to completion. Events from the
// worker's SSE stream feed onEvent as they arrive (the stream
// auto-reconnects with Last-Event-ID, see api.EventStream); the job's
// chunked partial is polled on JobPollInterval and fed to onStatus, so
// units the worker already computed are harvested even if it dies
// before finishing — that harvest is what partial-result salvage
// re-plans around. On success the worker job's final Result is
// returned; the worker job is deleted best-effort either way, which is
// also how a cancelled coordinator job propagates its cancellation.
func (c *Coordinator) runShardJob(ctx context.Context, key string, jreq api.JobRequest, onEvent func(api.JobEvent), onStatus func(api.JobStatusResponse)) (json.RawMessage, error) {
	order := c.candidates(key)
	h, w, err := runArm(ctx, c, order, func(ctx context.Context, cl *api.Client) (api.JobHandle, error) {
		// Detached from ctx, like the deferred delete below: a worker
		// may accept the job after ctx dies mid-call, and only a create
		// that completes hands us the ID that delete needs — otherwise
		// the orphaned worker job runs to completion holding a slot.
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.opts.RequestTimeout)
		defer cancel()
		return cl.CreateJob(cctx, jreq)
	})
	if err != nil {
		if jobsUnsupported(err) {
			return nil, errJobsUnsupported
		}
		return nil, err
	}
	defer func() {
		// Best-effort cleanup on the worker: frees its registry slot on
		// success, cancels the remote work when our ctx died first. Runs
		// on a detached context — the whole point is surviving ctx.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		_ = w.client.DeleteJob(dctx, h.ID)
	}()

	fetch := func() (api.JobStatusResponse, error) {
		pctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
		return w.client.Job(pctx, h.ID)
	}
	finish := func(st api.JobStatusResponse) (json.RawMessage, error) {
		if onStatus != nil {
			onStatus(st)
		}
		switch st.State {
		case api.JobStateSucceeded:
			w.br.onSuccess()
			return st.Result, nil
		default:
			msg := st.Error
			if msg == "" {
				msg = "worker job state " + st.State
			}
			return nil, fmt.Errorf("fleet: job %s on %s: %s", h.ID, w.name, msg)
		}
	}

	// The stream reader pushes events and its terminal error through
	// channels; the main loop multiplexes them with the partial poll.
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	events := make(chan api.JobEvent, 64)
	streamErr := make(chan error, 1)
	go func() {
		st, err := w.client.JobEvents(sctx, h.ID, -1)
		if err != nil {
			streamErr <- err
			return
		}
		defer st.Close()
		for {
			ev, err := st.Next()
			if err != nil {
				streamErr <- err
				return
			}
			select {
			case events <- ev:
			case <-sctx.Done():
				streamErr <- sctx.Err()
				return
			}
		}
	}()

	poll := time.NewTicker(c.opts.JobPollInterval)
	defer poll.Stop()
	for {
		select {
		case ev := <-events:
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.Terminal() {
				st, err := fetch()
				if err != nil {
					return nil, err
				}
				return finish(st)
			}
		case err := <-streamErr:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// The stream died past its reconnect budget. One last poll:
			// the job may have finished while the stream was down.
			if st, ferr := fetch(); ferr == nil && st.State == api.JobStateSucceeded {
				return finish(st)
			}
			if workerFault(ctx, err) {
				if w.br.onFailure(time.Now()) {
					c.metrics.breakerOpens.Add(1)
					c.logger.Warn("fleet: breaker opened", "worker", w.name, "err", err)
				}
			}
			return nil, fmt.Errorf("fleet: job %s event stream from %s: %w", h.ID, w.name, err)
		case <-poll.C:
			st, err := fetch()
			if err != nil {
				// A dead worker surfaces through the stream watcher; a
				// transient poll failure is not worth more than skipping.
				continue
			}
			if onStatus != nil {
				onStatus(st)
			}
			switch st.State {
			case api.JobStateSucceeded, api.JobStateFailed, api.JobStateCancelled:
				return finish(st)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// harvest is the salvage loop of a fleet job. Each round plans shards
// for the units still missing (plan gets the shard target), runs them
// all concurrently and waits for every one — a failing shard cancels
// no sibling, since each one's partial harvest counts — and repeats
// until nothing is missing. A round that lands nothing is dry:
// maxSalvageRounds consecutive dry rounds fail the job with the last
// shard error. While no worker is healthy the job parks instead. Every
// round after the first re-plans salvage, and so does the first when
// the job was adopted mid-flight from a checkpoint.
func harvest[S any](ctx context.Context, c *Coordinator, kind string, adopted bool, missing func() int, plan func(target int) []S, run func(context.Context, S) error) error {
	var lastErr error
	for dry := 0; ; {
		before := missing()
		if before == 0 {
			return nil
		}
		if adopted {
			c.metrics.salvageRounds.Add(1)
			c.metrics.replannedUnits.Add(int64(before))
			c.logger.Info("fleet: salvage round", "kind", kind, "missing_units", before)
		}
		if err := c.waitHealthy(ctx); err != nil {
			return err
		}
		shards := plan(c.shardTarget())
		errs := make([]error, len(shards))
		if err := parallel.For(ctx, len(shards), len(shards), func(ctx context.Context, i int) error {
			errs[i] = run(ctx, shards[i])
			return nil
		}); err != nil {
			return err // only ctx ends: fn never fails
		}
		for _, err := range errs {
			if err != nil {
				lastErr = err
				break
			}
		}
		if missing() < before {
			dry = 0
		} else {
			dry++
			if dry >= maxSalvageRounds {
				if lastErr == nil {
					lastErr = fmt.Errorf("fleet: %s job made no progress", kind)
				}
				return lastErr
			}
			if err := sleepCtx(ctx, jitter(c.backoff(dry, lastErr))); err != nil {
				return err
			}
		}
		adopted = true
	}
}

// noteSalvaged records the units a failed worker job had already
// delivered: they stay landed, and only the rest is re-planned.
func (c *Coordinator) noteSalvaged(kind string, kept, lost int) {
	if kept > 0 {
		c.metrics.salvagedUnits.Add(int64(kept))
		c.logger.Info("fleet: salvaged partial shard", "kind", kind, "units_kept", kept, "units_lost", lost)
	}
}

// waitHealthy parks a fleet job while no member is healthy: the job
// stays running and keeps waiting for the prober to revive someone (or
// for a worker to be added) instead of failing — a temporarily dark
// fleet is an operational state, not a job error.
func (c *Coordinator) waitHealthy(ctx context.Context) error {
	if c.healthyCount() > 0 {
		return nil
	}
	c.metrics.jobsParked.Add(1)
	c.logger.Warn("fleet: job parked, no healthy workers")
	interval := c.opts.ProbeInterval / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	for {
		if err := sleepCtx(ctx, jitter(interval)); err != nil {
			return err
		}
		if c.healthyCount() > 0 {
			c.logger.Info("fleet: job unparked, workers healthy again")
			return nil
		}
	}
}
