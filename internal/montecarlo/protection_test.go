package montecarlo

import (
	"context"
	"reflect"
	"testing"

	"pixel/internal/protect"
)

func schemes() []protect.Scheme {
	return []protect.Scheme{
		protect.TMR(),
		protect.Parity{Retries: 3},
		protect.DefaultGuardBand(),
	}
}

// TestProtectedSigmaZeroClean: at σ=0 the derated rates are just as
// degenerate as the nominal ones, so the protected curve must be
// exactly clean for every scheme — full yield, zero mismatch, zero
// mitigation work.
func TestProtectedSigmaZeroClean(t *testing.T) {
	for _, s := range schemes() {
		spec := tinySpec(t)
		spec.Sigmas = []float64{0}
		spec.Trials = 8
		spec.Protection = s
		rep, err := RunState(context.Background(), spec, nil, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if rep.Protection != s.Name() {
			t.Errorf("report names scheme %q, want %q", rep.Protection, s.Name())
		}
		if len(rep.Protected) != 1 {
			t.Fatalf("%s: %d protected points, want 1", s.Name(), len(rep.Protected))
		}
		p := rep.Protected[0]
		if p.Yield != 1 || p.ArgmaxRate != 1 || p.MaxMismatch != 0 || p.CleanTrials != 8 {
			t.Errorf("%s: σ=0 protected point %+v, want fully clean", s.Name(), p)
		}
		if p.Calls != 0 || p.Retries != 0 || p.Disagreements != 0 || p.GaveUp != 0 {
			t.Errorf("%s: σ=0 mitigation counters moved: %+v", s.Name(), p)
		}
		if p.RetryFactor != 1 {
			t.Errorf("%s: σ=0 retry factor %g, want 1", s.Name(), p.RetryFactor)
		}
	}
}

// TestProtectedDeterministicAcrossWorkers extends the determinism
// satellite to the paired curves: with protection enabled the whole
// report — unprotected and protected points, counters included — must
// be bit-identical across worker counts. Under -race this also proves
// the serial protected re-run races with nothing.
func TestProtectedDeterministicAcrossWorkers(t *testing.T) {
	for _, s := range schemes() {
		spec := tinySpec(t)
		spec.Sigmas = []float64{0, 1, 3}
		spec.Trials = 12
		spec.Protection = s
		var ref *Report
		for _, w := range []int{1, 4} {
			spec.Workers = w
			rep, err := RunState(context.Background(), spec, nil, Hooks{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.Name(), w, err)
			}
			if ref == nil {
				ref = rep
				continue
			}
			if !reflect.DeepEqual(rep, ref) {
				t.Errorf("%s: workers=%d report differs:\n%+v\nwant\n%+v",
					s.Name(), w, rep.Protected, ref.Protected)
			}
		}
	}
}

// TestProtectionPairsCurves: the protected curve rides the same σ
// axis as the unprotected one, point for point, and disappears
// entirely when no scheme is set.
func TestProtectionPairsCurves(t *testing.T) {
	spec := tinySpec(t)
	spec.Protection = protect.DefaultGuardBand()
	rep, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Protected) != len(rep.Points) {
		t.Fatalf("%d protected points vs %d unprotected", len(rep.Protected), len(rep.Points))
	}
	for i, p := range rep.Protected {
		if p.Sigma != rep.Points[i].Sigma {
			t.Errorf("point %d: protected σ=%g, unprotected σ=%g", i, p.Sigma, rep.Points[i].Sigma)
		}
	}

	spec.Protection = nil
	bare, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Protection != "" || bare.Protected != nil {
		t.Errorf("unprotected run carries protection fields: %q, %d points",
			bare.Protection, len(bare.Protected))
	}
	// The unprotected curve is the same run either way: adding a scheme
	// must not disturb the baseline statistics (common random numbers).
	if !reflect.DeepEqual(bare.Points, rep.Points) {
		t.Error("enabling protection changed the unprotected curve")
	}
}

// TestGuardBandRecoversYield is the acceptance trade-off in miniature:
// at a σ that wrecks the unprotected tiny network, guard-banding must
// lift the yield substantially.
func TestGuardBandRecoversYield(t *testing.T) {
	spec := tinySpec(t)
	spec.Sigmas = []float64{4}
	spec.Trials = 32
	spec.Protection = protect.DefaultGuardBand()
	rep, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	un, pr := rep.Points[0], rep.Protected[0]
	if un.Yield > 0.6 {
		t.Fatalf("unprotected σ=4 yield %g too healthy for the test to mean anything", un.Yield)
	}
	if pr.Yield < un.Yield+0.2 {
		t.Errorf("guardband yield %g vs unprotected %g: no meaningful recovery", pr.Yield, un.Yield)
	}
	if pr.CleanTrials <= un.CleanTrials {
		t.Errorf("guardband clean trials %d <= unprotected %d: derate not reducing rates",
			pr.CleanTrials, un.CleanTrials)
	}
}

// TestParityCountersMove: at a high σ the detect-and-retry machinery
// must actually fire — calls counted, retries spent, a measured retry
// factor above 1 — and with a tiny budget some calls must give up.
func TestParityCountersMove(t *testing.T) {
	spec := tinySpec(t)
	spec.Sigmas = []float64{4}
	spec.Trials = 12
	spec.Protection = protect.Parity{Retries: 2}
	rep, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Protected[0]
	if p.Calls == 0 {
		t.Fatal("no protected calls counted at σ=4")
	}
	if p.Retries == 0 {
		t.Error("parity never retried at σ=4")
	}
	if p.GaveUp == 0 {
		t.Error("parity never exhausted a 2-retry budget at σ=4")
	}
	if p.RetryFactor <= 1 {
		t.Errorf("retry factor %g, want > 1", p.RetryFactor)
	}
	if got := rep.MaxRetryFactor(); got != p.RetryFactor {
		t.Errorf("MaxRetryFactor %g != single point's %g", got, p.RetryFactor)
	}
}
