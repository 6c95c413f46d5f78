package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Queued jobs wait for a running slot; the other
// three are terminal.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// Task is one resumable unit of asynchronous work. Tasks are built by a
// Factory from a (kind, spec) pair, possibly restored from a snapshot,
// and run to completion once.
type Task interface {
	Checkpointable
	// Progress returns completed and total slot counts (restored slots
	// count as completed).
	Progress() (done, total int)
	// Run executes the remaining work, publishing progress and partial
	// results through emit, and returns the final result. The result
	// must be JSON-marshalable.
	Run(ctx context.Context, emit func(typ string, data any)) (result any, err error)
}

// PartialReporter is an optional Task extension: a snapshot of partial
// results for status polls (e.g. the σ points already fully sampled).
type PartialReporter interface {
	Partial() any
}

// Factory rebuilds a Task from its kind and spec — both at job creation
// and when a restarted process re-adopts persisted jobs.
type Factory func(kind string, spec json.RawMessage) (Task, error)

// ErrRegistryFull reports that the bounded registry cannot admit
// another job until finished ones expire or are deleted.
var ErrRegistryFull = errors.New("jobs: registry full")

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// Factory builds tasks from (kind, spec). Required.
	Factory Factory
	// Manager persists job metadata and checkpoints; nil keeps jobs in
	// memory only (no restart recovery).
	Manager *Manager
	// MaxJobs bounds how many jobs (any state) the registry tracks;
	// <= 0 means DefaultMaxJobs.
	MaxJobs int
	// MaxRunning bounds concurrently executing jobs; <= 0 means
	// DefaultMaxRunning. Excess jobs queue.
	MaxRunning int
	// TTL is how long finished jobs (and their files) are retained;
	// <= 0 means DefaultTTL.
	TTL time.Duration
	// SaveEvery is the periodic checkpoint cadence while a job runs;
	// <= 0 means DefaultSaveEvery. Ignored without a Manager.
	SaveEvery time.Duration
	// Heartbeat is the keep-alive comment cadence of StreamEvents;
	// <= 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// Logger receives recovery and persistence diagnostics; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Registry defaults.
const (
	DefaultMaxJobs    = 256
	DefaultMaxRunning = 2
	DefaultTTL        = 15 * time.Minute
	DefaultSaveEvery  = 5 * time.Second
	DefaultHeartbeat  = 15 * time.Second
)

// File-name suffixes of a job's two on-disk artifacts.
const (
	metaSuffix = ".job"
	ckptSuffix = ".ckpt"
)

// jobMeta is the persisted job record: enough to re-adopt the job after
// a restart (spec re-builds the task, EventSeq keeps the SSE stream
// monotone) and to keep serving status for finished jobs.
type jobMeta struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	Spec        json.RawMessage `json:"spec"`
	State       Status          `json:"state"`
	CreatedUnix int64           `json:"created_unix"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	EventSeq    int64           `json:"event_seq"`
}

// Job is one tracked asynchronous run. All mutable state is behind the
// registry's lock; read it through Snapshot.
type Job struct {
	ID     string
	Kind   string
	Spec   json.RawMessage
	Events *EventLog

	task    Task
	cancel  context.CancelFunc
	state   Status
	created time.Time
	adopted bool
	errMsg  string
	result  json.RawMessage
	done    time.Time
	deleted bool
}

// JobStatus is a consistent point-in-time view of a job.
type JobStatus struct {
	ID          string
	Kind        string
	State       Status
	Done        int
	Total       int
	CreatedUnix int64
	Adopted     bool
	Error       string
	Result      json.RawMessage
	Partial     any
}

// Registry owns asynchronous jobs: creation, bounded admission, queued
// execution, periodic checkpointing, TTL eviction and restart recovery.
// Construct with NewRegistry; Close releases its goroutines.
type Registry struct {
	factory    Factory
	mgr        *Manager
	maxJobs    int
	maxRunning int
	ttl        time.Duration
	saveEvery  time.Duration
	heartbeat  time.Duration
	logger     *slog.Logger

	mu   sync.Mutex
	jobs map[string]*Job

	slots      chan struct{}
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
	closing    bool
}

// NewRegistry builds a registry and starts its TTL janitor.
func NewRegistry(opts RegistryOptions) *Registry {
	if opts.Factory == nil {
		panic("jobs: RegistryOptions.Factory is required")
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	maxRunning := opts.MaxRunning
	if maxRunning <= 0 {
		maxRunning = DefaultMaxRunning
	}
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	saveEvery := opts.SaveEvery
	if saveEvery <= 0 {
		saveEvery = DefaultSaveEvery
	}
	heartbeat := opts.Heartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat // a zero ticker would panic
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		factory:    opts.Factory,
		mgr:        opts.Manager,
		maxJobs:    maxJobs,
		maxRunning: maxRunning,
		ttl:        ttl,
		saveEvery:  saveEvery,
		heartbeat:  heartbeat,
		logger:     logger,
		jobs:       map[string]*Job{},
		slots:      make(chan struct{}, maxRunning),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	r.wg.Add(1)
	go r.janitor()
	return r
}

// newID returns a fresh 16-hex-digit job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is unusable
	}
	return hex.EncodeToString(b[:])
}

// Create admits a new job: builds its task, persists its metadata (so a
// crash between creation and completion is recoverable) and queues it
// for execution.
func (r *Registry) Create(kind string, spec json.RawMessage) (*Job, error) {
	task, err := r.factory(kind, spec)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:      newID(),
		Kind:    kind,
		Spec:    append(json.RawMessage(nil), spec...),
		Events:  NewEventLog(0, 0),
		task:    task,
		state:   StatusQueued,
		created: time.Now(),
	}
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return nil, errors.New("jobs: registry is shutting down")
	}
	if len(r.jobs) >= r.maxJobs {
		r.evictExpiredLocked(time.Now())
	}
	if len(r.jobs) >= r.maxJobs {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d jobs tracked", ErrRegistryFull, r.maxJobs)
	}
	r.jobs[j.ID] = j
	r.mu.Unlock()
	r.persistMeta(j)
	r.launch(j)
	return j, nil
}

// Get returns the job with the given id.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Snapshot returns a consistent view of the job's state and progress.
func (r *Registry) Snapshot(j *Job) JobStatus {
	r.mu.Lock()
	st := JobStatus{
		ID:          j.ID,
		Kind:        j.Kind,
		State:       j.state,
		CreatedUnix: j.created.Unix(),
		Adopted:     j.adopted,
		Error:       j.errMsg,
		Result:      j.result,
	}
	task := j.task
	r.mu.Unlock()
	if task != nil {
		st.Done, st.Total = task.Progress()
		if pr, ok := task.(PartialReporter); ok && !st.State.Terminal() {
			st.Partial = pr.Partial()
		}
	}
	return st
}

// Delete cancels the job if it is still running and removes it — and
// its persisted files — entirely.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("jobs: no job %q", id)
	}
	delete(r.jobs, id)
	j.deleted = true
	cancel := j.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	r.removeFiles(id)
	return nil
}

// Recover scans the manager directory and re-adopts every persisted
// job: finished jobs come back as queryable records, unfinished jobs
// restore their checkpoint (when present and intact) and resume
// running. It returns how many unfinished jobs resumed.
func (r *Registry) Recover() (resumed int, err error) {
	if r.mgr == nil {
		return 0, nil
	}
	names, err := r.mgr.List(metaSuffix)
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		payload, err := r.mgr.Load(name)
		if err != nil {
			r.logger.Warn("jobs: skipping unreadable job record", "file", name, "err", err)
			continue
		}
		var meta jobMeta
		if err := json.Unmarshal(payload, &meta); err != nil || meta.ID == "" {
			r.logger.Warn("jobs: skipping malformed job record", "file", name, "err", err)
			continue
		}
		j := &Job{
			ID:      meta.ID,
			Kind:    meta.Kind,
			Spec:    meta.Spec,
			Events:  NewEventLog(meta.EventSeq, 0),
			state:   meta.State,
			created: time.Unix(meta.CreatedUnix, 0),
			adopted: true,
			errMsg:  meta.Error,
			result:  meta.Result,
		}
		if meta.State.Terminal() {
			j.done = time.Now() // retention clock restarts at adoption
			r.mu.Lock()
			r.jobs[j.ID] = j
			r.mu.Unlock()
			continue
		}
		task, err := r.factory(meta.Kind, meta.Spec)
		if err != nil {
			r.logger.Warn("jobs: cannot rebuild job, dropping", "id", meta.ID, "err", err)
			r.removeFiles(meta.ID)
			continue
		}
		if err := r.mgr.LoadInto(meta.ID+ckptSuffix, task); err != nil {
			if errors.Is(err, ErrNotFound) {
				r.logger.Info("jobs: no checkpoint, restarting job from scratch", "id", meta.ID)
			} else {
				// Corrupt or mismatched checkpoint: report it and rerun —
				// the whole point of bit-exact resume is that a from-scratch
				// run converges to the identical result.
				r.logger.Warn("jobs: checkpoint unusable, restarting job from scratch", "id", meta.ID, "err", err)
			}
		}
		j.task = task
		j.state = StatusQueued
		r.mu.Lock()
		r.jobs[j.ID] = j
		r.mu.Unlock()
		done, total := task.Progress()
		r.append(j, "adopted", map[string]int{"done": done, "total": total})
		r.persistMeta(j)
		r.launch(j)
		resumed++
	}
	return resumed, nil
}

// append publishes an event on the job's log, logging (not failing) on
// marshal errors.
func (r *Registry) append(j *Job, typ string, data any) {
	if _, err := j.Events.Append(typ, data); err != nil {
		r.logger.Warn("jobs: dropping unmarshalable event", "id", j.ID, "type", typ, "err", err)
	}
}

// launch queues the job for execution.
func (r *Registry) launch(j *Job) {
	r.wg.Add(1)
	ctx, cancel := context.WithCancel(r.baseCtx)
	r.mu.Lock()
	j.cancel = cancel
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		defer cancel()
		select {
		case r.slots <- struct{}{}:
		case <-ctx.Done():
			r.finalize(j, nil, ctx.Err())
			return
		}
		defer func() { <-r.slots }()
		r.mu.Lock()
		j.state = StatusRunning
		r.mu.Unlock()

		stopSave := make(chan struct{})
		var saveWG sync.WaitGroup
		if r.mgr != nil {
			saveWG.Add(1)
			go func() {
				defer saveWG.Done()
				t := time.NewTicker(r.saveEvery)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						r.checkpoint(j)
					case <-stopSave:
						return
					}
				}
			}()
		}
		result, err := j.task.Run(ctx, func(typ string, data any) { r.append(j, typ, data) })
		close(stopSave)
		saveWG.Wait()
		r.finalize(j, result, err)
	}()
}

// checkpoint persists the job's engine snapshot and its metadata (the
// meta carries the event seq, keeping a restarted stream monotone).
func (r *Registry) checkpoint(j *Job) {
	r.mu.Lock()
	skip := j.deleted || j.state.Terminal()
	r.mu.Unlock()
	if skip || r.mgr == nil {
		return
	}
	if err := r.mgr.Save(j.ID+ckptSuffix, j.task); err != nil {
		r.logger.Warn("jobs: checkpoint failed", "id", j.ID, "err", err)
	}
	r.persistMeta(j)
}

// finalize records the job's terminal state, emits the terminal event
// and settles its on-disk artifacts.
func (r *Registry) finalize(j *Job, result any, err error) {
	r.mu.Lock()
	closing := r.closing
	deleted := j.deleted
	r.mu.Unlock()

	if err != nil && errors.Is(err, context.Canceled) && closing && !deleted {
		// Shutdown, not failure: flush a final checkpoint and leave the
		// persisted state "running" so the next process re-adopts it.
		if r.mgr != nil {
			if err := r.mgr.Save(j.ID+ckptSuffix, j.task); err != nil {
				r.logger.Warn("jobs: shutdown checkpoint failed", "id", j.ID, "err", err)
			}
			r.mu.Lock()
			j.state = StatusRunning
			r.mu.Unlock()
			r.persistMeta(j)
		}
		return
	}

	state := StatusSucceeded
	var resJSON json.RawMessage
	var msg string
	switch {
	case err == nil:
		buf, merr := json.Marshal(result)
		if merr != nil {
			state, msg = StatusFailed, fmt.Sprintf("marshal result: %v", merr)
		} else {
			resJSON = buf
		}
	case errors.Is(err, context.Canceled):
		state = StatusCancelled
	default:
		state, msg = StatusFailed, err.Error()
	}

	r.mu.Lock()
	j.state = state
	j.errMsg = msg
	j.result = resJSON
	j.done = time.Now()
	r.mu.Unlock()

	done, total := 0, 0
	if j.task != nil {
		done, total = j.task.Progress()
	}
	r.append(j, string(state), map[string]any{"done": done, "total": total, "error": msg})

	if deleted {
		return // files already removed by Delete
	}
	if r.mgr != nil {
		// The run is settled: the checkpoint has served its purpose, the
		// meta record keeps status queryable until TTL eviction.
		if err := r.mgr.Remove(j.ID + ckptSuffix); err != nil {
			r.logger.Warn("jobs: remove checkpoint", "id", j.ID, "err", err)
		}
		r.persistMeta(j)
	}
}

// persistMeta writes the job's metadata record through the manager.
func (r *Registry) persistMeta(j *Job) {
	if r.mgr == nil {
		return
	}
	r.mu.Lock()
	meta := jobMeta{
		ID:          j.ID,
		Kind:        j.Kind,
		Spec:        j.Spec,
		State:       j.state,
		CreatedUnix: j.created.Unix(),
		Error:       j.errMsg,
		Result:      j.result,
		EventSeq:    j.Events.NextSeq(),
	}
	if meta.State == StatusQueued {
		meta.State = StatusRunning // queued is a process-local distinction
	}
	r.mu.Unlock()
	buf, err := json.Marshal(meta)
	if err != nil {
		r.logger.Warn("jobs: marshal job record", "id", j.ID, "err", err)
		return
	}
	if err := r.mgr.SaveBytes(j.ID+metaSuffix, buf); err != nil {
		r.logger.Warn("jobs: persist job record", "id", j.ID, "err", err)
	}
}

// removeFiles deletes the job's persisted artifacts.
func (r *Registry) removeFiles(id string) {
	if r.mgr == nil {
		return
	}
	if err := r.mgr.Remove(id + metaSuffix); err != nil {
		r.logger.Warn("jobs: remove job record", "id", id, "err", err)
	}
	if err := r.mgr.Remove(id + ckptSuffix); err != nil {
		r.logger.Warn("jobs: remove checkpoint", "id", id, "err", err)
	}
}

// janitor evicts expired finished jobs on a TTL-derived cadence.
func (r *Registry) janitor() {
	defer r.wg.Done()
	period := r.ttl / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.mu.Lock()
			expired := r.evictExpiredLocked(time.Now())
			r.mu.Unlock()
			for _, id := range expired {
				r.removeFiles(id)
			}
		case <-r.baseCtx.Done():
			return
		}
	}
}

// evictExpiredLocked drops finished jobs older than the TTL and returns
// their ids (callers remove files outside the lock).
func (r *Registry) evictExpiredLocked(now time.Time) []string {
	var expired []string
	for id, j := range r.jobs {
		if j.state.Terminal() && now.Sub(j.done) > r.ttl {
			delete(r.jobs, id)
			j.deleted = true
			expired = append(expired, id)
		}
	}
	return expired
}

// Close stops the registry: running jobs are cancelled, flush a final
// checkpoint, and stay persisted as unfinished so the next process
// re-adopts them. Close blocks until every job goroutine has settled.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	r.baseCancel()
	r.wg.Wait()
}
