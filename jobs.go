package pixel

import (
	"context"
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/montecarlo"
	"pixel/internal/protect"
	"pixel/internal/slots"
	sweepeng "pixel/internal/sweep"
)

// ErrSnapshotMismatch reports a checkpoint snapshot that was taken
// under a different spec or grid, or whose slot list is torn —
// restoring it would silently mix two experiments, so it is refused
// and nothing of it is installed. Both job kinds return it. See
// docs/JOBS.md.
var ErrSnapshotMismatch = slots.ErrSnapshotMismatch

// RobustnessHooks observes a resumable robustness run: OnTrial per
// completed trial, OnPoint per completed σ point. Callbacks are
// serialized and fire from worker goroutines; keep them fast.
type RobustnessHooks = montecarlo.Hooks

// RobustnessJob is a resumable robustness run: the spec plus the slot
// store of completed trials. Snapshot captures the completed work;
// Restore into a job built from the same spec and Run finishes the
// remainder, producing a report byte-identical to an uninterrupted run
// at any worker count (see docs/JOBS.md for why that holds).
//
// A job is single-flight: call Run once. Snapshot and Progress are
// safe concurrently with a running job.
type RobustnessJob struct {
	spec   RobustnessSpec
	mcSpec montecarlo.Spec
	net    montecarlo.Network
	scheme protect.Scheme
	ad     arch.Design
	state  *montecarlo.State
}

// ValidateRobustness runs every check NewRobustnessJob and Robustness
// run, without allocating the run's slot store (trials × σ slots).
// Spec failures surface ErrUnknownNetwork, ErrUnknownDesign or
// ErrBadSpec.
func ValidateRobustness(spec RobustnessSpec) error {
	_, err := newRobustnessJob(spec)
	return err
}

// NewRobustnessJob validates the spec and allocates the job's slot
// store. Spec failures surface ErrUnknownNetwork, ErrUnknownDesign or
// ErrBadSpec, exactly like Robustness.
func NewRobustnessJob(spec RobustnessSpec) (*RobustnessJob, error) {
	j, err := newRobustnessJob(spec)
	if err != nil {
		return nil, err
	}
	j.state = montecarlo.NewState(j.mcSpec, spec.Network)
	return j, nil
}

// newRobustnessJob validates the spec and builds the job without its
// slot store.
func newRobustnessJob(spec RobustnessSpec) (*RobustnessJob, error) {
	ad, err := spec.Design.arch()
	if err != nil {
		return nil, err
	}
	net, err := montecarlo.BuildNetwork(spec.Network)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownNetwork, spec.Network, montecarlo.Networks())
	}
	scheme, err := spec.Protection.scheme()
	if err != nil {
		return nil, err
	}
	mcSpec := montecarlo.Spec{
		Model:       net.Model,
		Input:       net.Input,
		Design:      ad,
		Bits:        net.Bits,
		Terms:       net.Terms,
		Variation:   montecarlo.DefaultVariationModel(),
		Sigmas:      spec.Sigmas,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
		ErrorBudget: spec.ErrorBudget,
		Protection:  scheme,
	}
	if err := mcSpec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return &RobustnessJob{spec: spec, mcSpec: mcSpec, net: net, scheme: scheme, ad: ad}, nil
}

// Progress returns completed and total trial counts.
func (j *RobustnessJob) Progress() (done, total int) { return j.state.Progress() }

// Snapshot serializes the completed trials. Safe to call while Run is
// in flight; the snapshot holds a consistent prefix of the work.
func (j *RobustnessJob) Snapshot() ([]byte, error) { return j.state.Snapshot() }

// Restore reinstalls a snapshot taken from a job with the identical
// spec (Workers aside — resuming at a different pool width is legal).
// Foreign snapshots are refused with ErrSnapshotMismatch.
func (j *RobustnessJob) Restore(payload []byte) error { return j.state.Restore(payload) }

// Run executes (or finishes) the sweep. On cancellation the completed
// slots stay in the job, ready to Snapshot.
func (j *RobustnessJob) Run(ctx context.Context, hooks RobustnessHooks) (RobustnessReport, error) {
	rep, err := montecarlo.RunState(ctx, j.mcSpec, j.state, hooks)
	if err != nil {
		return RobustnessReport{}, err
	}
	out := RobustnessReport{
		Network:  j.spec.Network,
		Design:   rep.Design,
		Trials:   rep.Trials,
		Seed:     rep.Seed,
		Budget:   rep.ErrorBudget,
		Points:   rep.Points,
		Baseline: rep.Baseline,
	}
	if j.scheme != nil {
		pr, err := protectionReport(j.net, j.ad, j.scheme, rep)
		if err != nil {
			return RobustnessReport{}, err
		}
		out.Protection = pr
	}
	return out, nil
}

// SweepJob is a resumable multi-network design-space sweep: the
// flattened (network × point) grid plus the slot store of priced
// cells. Results merge restored and freshly priced cells and are
// byte-identical to an uninterrupted run. See docs/JOBS.md.
//
// A job is single-flight: call Run once. Snapshot and Progress are
// safe concurrently with a running job.
type SweepJob struct {
	engine   *Engine
	networks []string
	points   []Point
	jobs     []sweepeng.Job
	state    *sweepeng.State
}

// NewSweepJob validates the grid against the default engine and
// allocates the job's slot store.
func NewSweepJob(networks []string, points []Point) (*SweepJob, error) {
	return defaultEngine.NewSweepJob(networks, points)
}

// ValidateSweep runs every check NewSweepJob runs against the default
// engine, without allocating the job.
func ValidateSweep(networks []string, points []Point) error {
	return defaultEngine.ValidateSweep(networks, points)
}

// ValidateSweep runs every check NewSweepJob and SweepNetworks run —
// non-empty axes, known networks, valid designs and precisions — in
// the same order and with the same errors, without allocating the
// (network × point) job grid or its slot store.
func (e *Engine) ValidateSweep(networks []string, points []Point) error {
	if len(networks) == 0 || len(points) == 0 {
		return fmt.Errorf("pixel: sweep axes must be non-empty")
	}
	for i, name := range networks {
		if _, err := e.resolveNetwork(name); err != nil {
			return err
		}
		if i > 0 {
			continue // point checks do not depend on the network
		}
		for _, p := range points {
			if _, err := e.config(p); err != nil {
				return fmt.Errorf("pixel: sweep point %s: %w", p, err)
			}
		}
	}
	return nil
}

// NewSweepJob validates the grid and allocates the slot store; the
// job's evaluations run (and memoize) through this engine.
func (e *Engine) NewSweepJob(networks []string, points []Point) (*SweepJob, error) {
	if err := e.ValidateSweep(networks, points); err != nil {
		return nil, err
	}
	jobs := make([]sweepeng.Job, 0, len(networks)*len(points))
	for _, name := range networks {
		for _, p := range points {
			jobs = append(jobs, p.engineJob(name))
		}
	}
	return &SweepJob{
		engine:   e,
		networks: append([]string(nil), networks...),
		points:   append([]Point(nil), points...),
		jobs:     jobs,
		state:    sweepeng.NewState(jobs),
	}, nil
}

// Progress returns priced and total grid-cell counts.
func (j *SweepJob) Progress() (done, total int) { return j.state.Progress() }

// Snapshot serializes the priced cells. Safe to call while Run is in
// flight.
func (j *SweepJob) Snapshot() ([]byte, error) { return j.state.Snapshot() }

// Restore reinstalls a snapshot taken from a job over the identical
// (network × point) grid; anything else is refused with
// ErrSnapshotMismatch.
func (j *SweepJob) Restore(payload []byte) error { return j.state.Restore(payload) }

// Run executes (or finishes) the sweep. opts may be nil. The rows,
// like those handed to opts.Cell, carry no per-layer data (see
// Result.PerLayer). On cancellation the priced cells stay in the job,
// ready to Snapshot.
func (j *SweepJob) Run(ctx context.Context, opts *SweepOptions) (map[string][]Result, error) {
	ro := opts.runOptions()
	if opts != nil && opts.Cell != nil {
		cell := opts.Cell
		ro.OnJob = func(i int, c arch.NetworkCost) {
			name := j.networks[i/len(j.points)]
			pi := i % len(j.points)
			cell(name, pi, sweepRow(name, j.points[pi], &c))
		}
	}
	costs, err := j.engine.eng.RunState(ctx, j.jobs, j.state, ro)
	if err != nil {
		return nil, err
	}
	n := len(j.points)
	rows := make([]Result, len(costs))
	out := make(map[string][]Result, len(j.networks))
	for ni, name := range j.networks {
		results := rows[ni*n : (ni+1)*n : (ni+1)*n]
		for pi, p := range j.points {
			results[pi] = sweepRow(name, p, &costs[ni*n+pi])
		}
		out[name] = results
	}
	return out, nil
}
