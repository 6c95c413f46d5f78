package pixel

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"pixel/internal/arch"
	"pixel/internal/montecarlo"
	"pixel/internal/protect"
)

// RobustnessSpec configures a Monte-Carlo variation-to-yield sweep: N
// virtual parts are fabricated per σ scale, each samples device-level
// perturbations (MRR resonance offset, ambient excursion through the
// thermal tuning loop, MZI split error, comparator threshold offset),
// and runs a full quantized CNN inference through a fault-injecting
// bit-serial engine. See docs/VARIATION.md.
type RobustnessSpec struct {
	// Network names the demo network to perturb (see
	// RobustnessNetworks; "lenet" is the golden-test LeNet).
	Network string
	// Design selects the exposed datapaths: EE is immune, OE exposes
	// the optical multiply, OO the multiply and the accumulate.
	Design Design
	// Sigmas is the σ-scale axis: each value multiplies every device
	// variation σ of the default model.
	Sigmas []float64
	// Trials is the number of virtual parts per σ point.
	Trials int
	// Seed is the root seed; the whole run is a pure function of
	// (spec, Seed) regardless of Workers.
	Seed int64
	// Workers sizes the trial-level worker pool; <= 0 means
	// GOMAXPROCS.
	Workers int
	// ErrorBudget is the tolerated fraction of output elements
	// differing from the unperturbed baseline for a part to count as
	// yielding; 0 demands bit-exact inference.
	ErrorBudget float64
	// Protection, when non-nil, re-runs every trial through a
	// fault-mitigation scheme (same random draws — common random
	// numbers) and adds the paired protected curve plus its
	// energy/latency/area overhead to the report.
	Protection *ProtectionSpec
}

// ProtectionSpec selects and parameterizes a fault-mitigation scheme
// for a robustness sweep. Unset numeric fields take the scheme's
// default.
type ProtectionSpec struct {
	// Scheme is one of "tmr" (triple-modular redundancy), "dmr",
	// "nmr" (Copies-way redundancy), "parity" (parity-guarded
	// detect-and-retry) or "guardband" (threshold guard-banding +
	// periodic thermal recalibration).
	Scheme string `json:"scheme"`
	// Copies is the redundancy degree for "nmr" (default 3).
	Copies int `json:"copies,omitempty"`
	// Retries is the per-call retry budget for "parity" (default 3).
	Retries int `json:"retries,omitempty"`
	// RecalEvery is the recalibration interval for "guardband"
	// (default 32 inferences).
	RecalEvery int `json:"recal_every,omitempty"`
}

// scheme builds the internal protect.Scheme, or nil for a nil spec.
func (p *ProtectionSpec) scheme() (protect.Scheme, error) {
	if p == nil {
		return nil, nil
	}
	var s protect.Scheme
	switch strings.ToLower(strings.TrimSpace(p.Scheme)) {
	case "tmr":
		s = protect.TMR()
	case "dmr":
		s = protect.Redundancy{Copies: 2}
	case "nmr":
		copies := p.Copies
		if copies == 0 {
			copies = 3
		}
		s = protect.Redundancy{Copies: copies}
	case "parity":
		retries := p.Retries
		if retries <= 0 {
			retries = 3
		}
		s = protect.Parity{Retries: retries}
	case "guardband":
		g := protect.DefaultGuardBand()
		if p.RecalEvery > 0 {
			g.RecalEvery = p.RecalEvery
		}
		s = g
	default:
		return nil, fmt.Errorf("%w: unknown protection scheme %q (have tmr, dmr, nmr, parity, guardband)",
			ErrBadSpec, p.Scheme)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return s, nil
}

// ParseProtection parses a CLI-style protection selector:
// "tmr", "dmr", "nmr:5", "parity", "parity:3", "guardband",
// "guardband:16". An empty string or "none" means no protection. The
// optional ":N" parameterizes the scheme (copies for nmr, retries for
// parity, recalibration interval for guardband).
func ParseProtection(s string) (*ProtectionSpec, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "none" {
		return nil, nil
	}
	name, arg, hasArg := strings.Cut(s, ":")
	spec := &ProtectionSpec{Scheme: name}
	if hasArg {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("%w: protection parameter %q is not an integer", ErrBadSpec, arg)
		}
		if n <= 0 {
			return nil, fmt.Errorf("%w: protection parameter %d must be positive", ErrBadSpec, n)
		}
		switch name {
		case "nmr":
			spec.Copies = n
		case "parity":
			spec.Retries = n
		case "guardband":
			spec.RecalEvery = n
		default:
			return nil, fmt.Errorf("%w: protection scheme %q takes no parameter", ErrBadSpec, name)
		}
	}
	// Validate eagerly so the flag boundary reports bad schemes.
	if _, err := spec.scheme(); err != nil {
		return nil, err
	}
	return spec, nil
}

// YieldPoint is the aggregate of all trials at one σ scale.
type YieldPoint = montecarlo.SigmaPoint

// ProtectedPoint is one σ point of the protected curve: the usual
// yield statistics plus the scheme's mitigation-work counters.
type ProtectedPoint = montecarlo.ProtectedPoint

// ProtectionReport is the protected half of a paired robustness run:
// the recovered yield curve and what the mitigation costs through the
// arch model — protection is never free.
type ProtectionReport struct {
	// Scheme names the mitigation ("tmr", "parity", "guardband", ...).
	Scheme string `json:"scheme"`
	// Points is the protected yield curve on the same σ axis as the
	// unprotected one, from the same random draws.
	Points []ProtectedPoint `json:"points"`
	// MaxRetryFactor is the worst measured per-call re-execution
	// overhead across the axis (1 + retries/call); it is folded into
	// the energy and latency overheads below.
	MaxRetryFactor float64 `json:"max_retry_factor"`
	// EnergyOverhead, LatencyOverhead and AreaOverhead are
	// protected/unprotected cost ratios of one inference of this
	// network on this design under the arch cost model.
	EnergyOverhead  float64 `json:"energy_overhead"`
	LatencyOverhead float64 `json:"latency_overhead"`
	AreaOverhead    float64 `json:"area_overhead"`
}

// MinYield returns the worst protected yield across the σ axis (1 for
// an empty curve).
func (r *ProtectionReport) MinYield() float64 {
	min := 1.0
	for _, p := range r.Points {
		if p.Yield < min {
			min = p.Yield
		}
	}
	return min
}

// RobustnessReport is a yield curve with its provenance.
type RobustnessReport struct {
	Network string       `json:"network"`
	Design  string       `json:"design"`
	Trials  int          `json:"trials"`
	Seed    int64        `json:"seed"`
	Budget  float64      `json:"error_budget"`
	Points  []YieldPoint `json:"points"`
	// Baseline is the unperturbed inference output the trials are
	// judged against.
	Baseline []int64 `json:"baseline"`
	// Protection is the paired protected curve and its overhead, nil
	// when the spec requested none.
	Protection *ProtectionReport `json:"protection,omitempty"`
}

// MinYield returns the worst yield across the σ axis (1 for an empty
// curve).
func (r RobustnessReport) MinYield() float64 {
	min := 1.0
	for _, p := range r.Points {
		if p.Yield < min {
			min = p.Yield
		}
	}
	return min
}

// RobustnessNetworks lists the demo networks a robustness sweep can
// perturb.
func RobustnessNetworks() []string { return montecarlo.Networks() }

// RobustnessContext runs a Monte-Carlo variation sweep with
// cancellation. Spec failures
// surface ErrUnknownNetwork, ErrUnknownDesign or ErrBadSpec; the
// report is bit-identical for any Workers value. For a resumable run
// with progress hooks, build a RobustnessJob instead — this is the
// one-shot form of the same machinery.
func RobustnessContext(ctx context.Context, spec RobustnessSpec) (RobustnessReport, error) {
	job, err := NewRobustnessJob(spec)
	if err != nil {
		return RobustnessReport{}, err
	}
	return job.Run(ctx, RobustnessHooks{})
}

// protectionCostLanes is the canonical ensemble size protection
// overheads are priced at (the paper's 8-lane, native-precision MAC
// ensemble) — the ratios are what the report carries, and they are
// insensitive to the absolute ensemble scale.
const protectionCostLanes = 8

// protectionReport prices the scheme on this network and design and
// pairs it with the protected curve. The measured worst-case retry
// factor from the run is folded into the a-priori overhead so
// detect-and-retry schemes pay for the re-executions they actually
// performed.
func protectionReport(net montecarlo.Network, ad arch.Design, scheme protect.Scheme, rep *montecarlo.Report) (*ProtectionReport, error) {
	pr := &ProtectionReport{
		Scheme:         rep.Protection,
		Points:         rep.Protected,
		MaxRetryFactor: rep.MaxRetryFactor(),
	}
	cfg, err := arch.NewConfig(ad, protectionCostLanes, arch.NativePrecision)
	if err != nil {
		return nil, err
	}
	cost, err := arch.CostNetwork(net.Cost, cfg)
	if err != nil {
		return nil, err
	}
	pc, err := arch.ApplyProtection(cost, scheme.Overhead(ad).WithExecutions(pr.MaxRetryFactor))
	if err != nil {
		return nil, err
	}
	pr.EnergyOverhead = pc.EnergyOverhead()
	pr.LatencyOverhead = pc.LatencyOverhead()
	pr.AreaOverhead = pc.AreaOverhead()
	return pr, nil
}
