package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
	"pixel/internal/protect"
	"pixel/internal/qnn"
	"pixel/internal/slots"
	"pixel/internal/tensor"
)

// Spec configures one Monte-Carlo yield run: N independent virtual
// parts are fabricated per σ scale, each samples a Perturbation, maps
// it to the design's bit-flip rates, and runs the whole network
// through a fault-injecting bit-serial engine.
type Spec struct {
	// Model and Input are the network and stimulus; the unperturbed
	// run of the pair is the trial-pass baseline.
	Model *qnn.Model
	Input *tensor.Tensor
	// Design selects the exposed datapaths (EE immune, OE multiply
	// only, OO multiply and accumulate).
	Design arch.Design
	// Bits and Terms size the bit-serial engines, as in
	// bitserial.NewFastEngine.
	Bits  int
	Terms int
	// Variation is the base (σ-scale 1) device variation model.
	Variation VariationModel
	// Sigmas is the σ-scale axis of the yield curve; each entry
	// multiplies every variation σ.
	Sigmas []float64
	// Trials is the number of virtual parts per σ point.
	Trials int
	// Seed is the root seed; trial t derives its perturbation and
	// injection streams from (Seed, t) alone, independent of σ index
	// and worker schedule, so runs are bit-identical at any Workers.
	Seed int64
	// Workers sizes the trial-level pool; <= 0 means GOMAXPROCS.
	Workers int
	// ErrorBudget is the largest tolerated fraction of output elements
	// differing from the baseline for a trial to count as yielding;
	// 0 demands bit-exact inference.
	ErrorBudget float64
	// Protection, when non-nil, makes the run produce a second, paired
	// yield curve: every trial re-runs its inference through the scheme
	// — same perturbation draw, same fault-stream seeds (common random
	// numbers) — so the protected and unprotected curves differ only by
	// the mitigation, not by resampling noise.
	Protection protect.Scheme
}

// Validate reports an error for an unrunnable spec.
func (s Spec) Validate() error {
	switch {
	case s.Model == nil || s.Input == nil:
		return errors.New("montecarlo: spec needs a model and an input")
	case s.Trials < 1:
		return fmt.Errorf("montecarlo: trials %d < 1", s.Trials)
	case len(s.Sigmas) == 0:
		return errors.New("montecarlo: empty sigma axis")
	case !(s.ErrorBudget >= 0 && s.ErrorBudget <= 1): // NaN fails both
		return fmt.Errorf("montecarlo: error budget %v out of [0,1]", s.ErrorBudget)
	}
	for _, sc := range s.Sigmas {
		if !(sc >= 0) || math.IsInf(sc, 1) {
			return fmt.Errorf("montecarlo: sigma scale %v is negative or not finite", sc)
		}
	}
	switch s.Design {
	case arch.EE, arch.OE, arch.OO:
	default:
		return fmt.Errorf("montecarlo: unknown design %d", int(s.Design))
	}
	if err := s.Variation.Validate(); err != nil {
		return err
	}
	if s.Protection != nil {
		if err := s.Protection.Validate(); err != nil {
			return err
		}
	}
	// Engine geometry is validated once here rather than per trial,
	// against the batched engine the clean baseline runs on: it accepts
	// a subset of the geometries the per-trial engines accept.
	if _, err := bitserial.NewBatchedStripes(s.Bits, s.Terms); err != nil {
		return err
	}
	return nil
}

// SigmaPoint is the aggregate of all trials at one σ scale.
type SigmaPoint struct {
	// Sigma is the σ scale of this point.
	Sigma float64 `json:"sigma"`
	// Yield is the fraction of trials whose output mismatch stayed
	// within the error budget.
	Yield float64 `json:"yield"`
	// ArgmaxRate is the fraction of trials whose output argmax (the
	// classification) matched the baseline.
	ArgmaxRate float64 `json:"argmax_rate"`
	// MeanMismatch, P50Mismatch, P95Mismatch and MaxMismatch summarize
	// the distribution of per-trial output-mismatch fractions.
	MeanMismatch float64 `json:"mean_mismatch"`
	P50Mismatch  float64 `json:"p50_mismatch"`
	P95Mismatch  float64 `json:"p95_mismatch"`
	MaxMismatch  float64 `json:"max_mismatch"`
	// MeanInjectedBER is the realized injected bit-error rate averaged
	// over trials.
	MeanInjectedBER float64 `json:"mean_injected_ber"`
	// CleanTrials counts trials whose sampled perturbation mapped to
	// exactly zero flip rates (no exposure at all).
	CleanTrials int `json:"clean_trials"`
}

// ProtectedPoint is the aggregate of the protected re-runs at one σ
// scale: the same curve statistics as the unprotected SigmaPoint plus
// the mitigation-work counters the scheme accumulated.
type ProtectedPoint struct {
	SigmaPoint
	// Calls, Retries, Disagreements and GaveUp sum the schemes'
	// counters over every trial at this σ (see protect.Counters).
	Calls         int64 `json:"calls"`
	Retries       int64 `json:"retries"`
	Disagreements int64 `json:"disagreements"`
	GaveUp        int64 `json:"gave_up"`
	// RetryFactor is 1 + sequential re-executions per protected call —
	// the measured execution overhead a detect-and-retry scheme feeds
	// into the arch cost model.
	RetryFactor float64 `json:"retry_factor"`
}

// Report is the result of one Monte-Carlo run.
type Report struct {
	// Design, Bits, Trials, Seed and ErrorBudget echo the spec.
	Design      string  `json:"design"`
	Bits        int     `json:"bits"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
	ErrorBudget float64 `json:"error_budget"`
	// Baseline is the unperturbed network output.
	Baseline []int64 `json:"baseline"`
	// Points is the yield curve, one entry per σ scale in spec order.
	Points []SigmaPoint `json:"points"`
	// Protection names the mitigation scheme; Protected is its paired
	// yield curve on the same σ axis. Both empty without a scheme.
	Protection string           `json:"protection,omitempty"`
	Protected  []ProtectedPoint `json:"protected,omitempty"`
}

// MaxRetryFactor returns the largest per-point retry factor of the
// protected curve (1 without one) — the worst-case measured execution
// overhead across the axis.
func (r *Report) MaxRetryFactor() float64 {
	max := 1.0
	for _, p := range r.Protected {
		if p.RetryFactor > max {
			max = p.RetryFactor
		}
	}
	return max
}

// trialDotter is a trial's qnn.FlipWalker: the clean values of each
// MAC layer come from the batched engine the baseline runs on, and the
// trial's fault-injecting engine (bare or under a protection scheme)
// walks them call by call. It deliberately does NOT implement
// qnn.MultiDotter: a stage off the lane path issues one DotProduct per
// pair on the stateful engine, in the same call order as the walk.
type trialDotter struct {
	qnn.LaneDotter // the clean engine
	e              bitserial.Walker
}

// DotProduct is the stateful engine's, without its Stats (yield
// analysis cares about values, not work counts).
func (t trialDotter) DotProduct(a, b []uint64) (uint64, error) {
	v, _, err := t.e.DotProduct(a, b)
	return v, err
}

// DotFromClean implements qnn.FlipWalker.
func (t trialDotter) DotFromClean(window func() []uint64, weights []uint64, clean uint64) (uint64, error) {
	return t.e.DotFromClean(window, weights, clean)
}

// splitmix64 is the SplitMix64 finalizer — a bijective avalanche mix
// used to derive independent per-trial seeds from (root, trial,
// stream) without any stream sharing prefixes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream indices of a trial's three independent rand streams.
const (
	streamPerturb = iota
	streamMul
	streamAcc
	streamCount
)

// trialSeed derives the seed of stream `stream` for trial `trial`
// from the root seed. σ scale is deliberately absent: the same trial
// draws the same underlying randomness at every σ, the
// common-random-numbers coupling behind monotone yield curves.
func trialSeed(root int64, trial, stream int) int64 {
	return int64(splitmix64(splitmix64(uint64(root)) + uint64(trial)*streamCount + uint64(stream)))
}

// Hooks observes a (resumable) run. All callbacks are serialized —
// they never run concurrently with themselves or each other — and fire
// from worker goroutines, so keep them fast.
type Hooks struct {
	// OnTrial fires after each trial slot completes with the cumulative
	// completed count (restored slots included) and the total.
	OnTrial func(done, total int)
	// OnPoint fires once per σ point as soon as all of its trials have
	// completed — out of axis order in general, since trials complete
	// across a worker pool — with the aggregated point and, when the
	// spec carries a protection scheme, the paired protected point
	// (nil otherwise). Points fully restored from a snapshot are
	// announced up front, in axis order, before any new trial runs.
	OnPoint func(index int, point SigmaPoint, protected *ProtectedPoint)
}

// RunState executes the Monte-Carlo sweep: the baseline inference
// once, then Trials×len(Sigmas) perturbed inferences across a worker
// pool. Each trial builds its own PerturbedEngine (stateful, serial
// within the trial) and the flattened (σ, trial) jobs land in fixed
// slots of st, so the report is bit-identical for any Workers value.
// Slots already completed in st (restored from a checkpoint) are
// skipped, the rest execute, and the final report aggregates both —
// which is why an interrupted-then-resumed run is byte-identical to an
// uninterrupted one at any worker count. A nil st runs on a fresh
// store. st may be snapshotted concurrently while RunState is in
// flight.
func RunState(ctx context.Context, spec Spec, st *State, hooks Hooks) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nSigma := len(spec.Sigmas)
	jobs := nSigma * spec.Trials
	if st == nil {
		st = NewState(spec, "")
	}
	if st.Len() != jobs {
		return nil, fmt.Errorf("%w: state has %d slots, spec needs %d", slots.ErrSnapshotMismatch, st.Len(), jobs)
	}
	// The baseline is clean, so it runs on the batched engine, which is
	// bit-identical to the sequential one.
	clean, err := bitserial.NewBatchedStripes(spec.Bits, spec.Terms)
	if err != nil {
		return nil, err
	}
	baseline, err := infer(ctx, spec, clean, spec.Workers)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: baseline inference: %w", err)
	}
	if err := st.setBaseline(baseline); err != nil {
		return nil, err
	}
	baseArgmax := argmax(baseline)

	// Per-σ-row outstanding counts drive OnPoint; rows the snapshot
	// already completed are announced immediately, in axis order.
	rowLeft := make([]int, nSigma)
	for _, j := range st.Missing() {
		rowLeft[j/spec.Trials]++
	}
	rowOf := func(i int) []TrialRecord { return st.Values(i*spec.Trials, (i+1)*spec.Trials) }
	emitPoint := func(i int) {
		if hooks.OnPoint == nil {
			return
		}
		row := rowOf(i)
		var prot *ProtectedPoint
		if spec.Protection != nil {
			p := aggregateProtected(spec.Sigmas[i], row, spec.ErrorBudget)
			prot = &p
		}
		hooks.OnPoint(i, aggregate(spec.Sigmas[i], row, spec.ErrorBudget, false), prot)
	}
	for i := 0; i < nSigma; i++ {
		if rowLeft[i] == 0 {
			emitPoint(i)
		}
	}
	if done, _ := st.Progress(); done > 0 && hooks.OnTrial != nil {
		hooks.OnTrial(done, jobs)
	}

	err = st.Fill(ctx, spec.Workers, func(ctx context.Context, j int) (TrialRecord, error) {
		return runTrial(ctx, spec, clean, spec.Sigmas[j/spec.Trials], j%spec.Trials, baseline, baseArgmax)
	}, func(j int, _ TrialRecord, done int) {
		if hooks.OnTrial != nil {
			hooks.OnTrial(done, jobs)
		}
		if rowLeft[j/spec.Trials]--; rowLeft[j/spec.Trials] == 0 {
			emitPoint(j / spec.Trials)
		}
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Design:      spec.Design.String(),
		Bits:        spec.Bits,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
		ErrorBudget: spec.ErrorBudget,
		Baseline:    baseline,
		Points:      make([]SigmaPoint, nSigma),
	}
	if spec.Protection != nil {
		rep.Protection = spec.Protection.Name()
		rep.Protected = make([]ProtectedPoint, nSigma)
	}
	for i := range rep.Points {
		row := rowOf(i)
		rep.Points[i] = aggregate(spec.Sigmas[i], row, spec.ErrorBudget, false)
		if spec.Protection != nil {
			rep.Protected[i] = aggregateProtected(spec.Sigmas[i], row, spec.ErrorBudget)
		}
	}
	return rep, nil
}

// runTrial fabricates one virtual part at one σ scale and measures its
// inference against the baseline. With a protection scheme in the spec
// the same part runs twice — unprotected, then through the scheme —
// reusing the identical perturbation draw and fault-stream seeds, so
// the paired curves are a common-random-numbers comparison. Both runs
// take their clean values from the baseline's engine, clean.
func runTrial(ctx context.Context, spec Spec, clean *bitserial.BatchedStripes, sigma float64, trial int, baseline []int64, baseArgmax int) (TrialRecord, error) {
	model := spec.Variation.Scale(sigma)
	pert := model.Sample(rand.New(rand.NewSource(trialSeed(spec.Seed, trial, streamPerturb))))

	// run is one inference of the part, unprotected when scheme is nil,
	// measured into the unprotected half of a record. The protected
	// rates come from the scheme's derate, which may move them in
	// either direction per trial (re-biasing the heater trades
	// cold-side authority for hot-side).
	run := func(scheme protect.Scheme) (TrialRecord, protect.Counters, error) {
		var rates bitserial.FlipRates
		var err error
		name := "trial"
		if scheme == nil {
			rates, err = model.Rates(pert, spec.Design)
		} else {
			rates, err = model.ProtectedRates(pert, spec.Design, scheme.Derate())
			name = "protected trial"
		}
		if err != nil {
			return TrialRecord{}, protect.Counters{}, err
		}
		if rates.Zero() {
			// No exposed datapath flips a bit, so the inference is
			// bit-identical to the baseline (the σ=0 degeneracy pinned
			// by the engine- and model-level tests): skip the run.
			return TrialRecord{ArgmaxOK: true, Clean: true}, protect.Counters{}, nil
		}
		eng, err := newTrialEngine(spec, rates, trial)
		if err != nil {
			return TrialRecord{}, protect.Counters{}, err
		}
		var dot bitserial.Walker = eng
		if scheme != nil {
			wrapped, err := scheme.Wrap(eng)
			if err != nil {
				return TrialRecord{}, protect.Counters{}, err
			}
			dot = wrapped.(bitserial.Walker) // Wrap keeps a Walker a Walker
		}
		out, err := infer(ctx, spec, trialDotter{clean, dot}, 1)
		if err != nil {
			return TrialRecord{}, protect.Counters{}, fmt.Errorf("montecarlo: %s %d at sigma %v: %w", name, trial, sigma, err)
		}
		var c protect.Counters
		if m, ok := dot.(protect.Metered); ok {
			c = m.Counters()
		}
		return TrialRecord{
			Mismatch:    mismatchFraction(out, baseline),
			ArgmaxOK:    argmax(out) == baseArgmax,
			InjectedBER: eng.InjectedBER(),
		}, c, nil
	}

	rec, _, err := run(nil)
	if err != nil || spec.Protection == nil {
		return rec, err
	}
	p, c, err := run(spec.Protection)
	if err != nil {
		return TrialRecord{}, err
	}
	rec.ProtMismatch, rec.ProtArgmaxOK, rec.ProtInjectedBER, rec.ProtClean = p.Mismatch, p.ArgmaxOK, p.InjectedBER, p.Clean
	rec.ProtCalls, rec.ProtRetries, rec.ProtDisagreements, rec.ProtGaveUp = c.Calls, c.Retries, c.Disagreements, c.GaveUp
	return rec, nil
}

// infer runs the spec's input through the fused RunBatch plan as a
// batch of one and returns the output. Trial engines are stateful and
// consume their fault streams in call order, so trials pass one worker:
// the plan then walks the calls in the unfused plan's exact sequence,
// and parallelism lives at the trial level.
func infer(ctx context.Context, spec Spec, d qnn.Dotter, workers int) ([]int64, error) {
	outs, err := spec.Model.RunBatch(ctx, []*tensor.Tensor{spec.Input}, d, qnn.RunOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return outs[0].Data, nil
}

// newTrialEngine builds the trial's fault-injecting engine; the
// protected re-run rebuilds it with the same stream seeds, which is
// what makes the paired curves share their fault draws.
func newTrialEngine(spec Spec, rates bitserial.FlipRates, trial int) (*bitserial.PerturbedEngine, error) {
	return bitserial.NewSeededPerturbedEngine(spec.Bits, spec.Terms, rates,
		trialSeed(spec.Seed, trial, streamMul), trialSeed(spec.Seed, trial, streamAcc))
}

// mismatchFraction is the fraction of output elements differing from
// the baseline.
func mismatchFraction(out, baseline []int64) float64 {
	mismatched := 0
	for i, v := range out {
		if v != baseline[i] {
			mismatched++
		}
	}
	return float64(mismatched) / float64(len(baseline))
}

// aggregate folds one σ point's trials into curve statistics, from
// each record's protected re-run when protected is set and from its
// unprotected run otherwise.
func aggregate(sigma float64, trials []TrialRecord, budget float64, protected bool) SigmaPoint {
	p := SigmaPoint{Sigma: sigma}
	mismatches := make([]float64, len(trials))
	for i, t := range trials {
		mismatch, argmaxOK, ber, clean := t.Mismatch, t.ArgmaxOK, t.InjectedBER, t.Clean
		if protected {
			mismatch, argmaxOK, ber, clean = t.ProtMismatch, t.ProtArgmaxOK, t.ProtInjectedBER, t.ProtClean
		}
		mismatches[i] = mismatch
		if mismatch <= budget {
			p.Yield++
		}
		if argmaxOK {
			p.ArgmaxRate++
		}
		if clean {
			p.CleanTrials++
		}
		p.MeanMismatch += mismatch
		p.MeanInjectedBER += ber
		if mismatch > p.MaxMismatch {
			p.MaxMismatch = mismatch
		}
	}
	n := float64(len(trials))
	p.Yield /= n
	p.ArgmaxRate /= n
	p.MeanMismatch /= n
	p.MeanInjectedBER /= n
	sort.Float64s(mismatches)
	p.P50Mismatch = percentile(mismatches, 0.50)
	p.P95Mismatch = percentile(mismatches, 0.95)
	return p
}

// aggregateProtected folds one σ point's protected re-runs into curve
// statistics plus the summed mitigation counters.
func aggregateProtected(sigma float64, trials []TrialRecord, budget float64) ProtectedPoint {
	p := ProtectedPoint{SigmaPoint: aggregate(sigma, trials, budget, true)}
	for _, t := range trials {
		p.Calls += t.ProtCalls
		p.Retries += t.ProtRetries
		p.Disagreements += t.ProtDisagreements
		p.GaveUp += t.ProtGaveUp
	}
	p.RetryFactor = 1
	if p.Calls > 0 {
		p.RetryFactor = 1 + float64(p.Retries)/float64(p.Calls)
	}
	return p
}

// percentile reads the q-quantile from sorted data (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// argmax returns the index of the largest element (first on ties).
func argmax(xs []int64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
