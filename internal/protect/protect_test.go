package protect

import (
	"math/rand"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
)

// scriptedEngine is a Stripes stub that returns a scripted sequence of
// values and optionally moves its odd-flip-word counter on scripted
// calls — a controllable stand-in for a PerturbedEngine.
type scriptedEngine struct {
	vals  []uint64
	dirty []bool
	i     int
	odd   int64
}

func (s *scriptedEngine) OddFlipWords() int64 { return s.odd }

func (s *scriptedEngine) next() uint64 {
	v := s.vals[s.i%len(s.vals)]
	if len(s.dirty) > 0 && s.dirty[s.i%len(s.dirty)] {
		s.odd++
	}
	s.i++
	return v
}

func (s *scriptedEngine) DotProduct(a, b []uint64) (uint64, bitserial.Stats, error) {
	return s.next(), bitserial.Stats{Cycles: 1}, nil
}

func counters(t *testing.T, e bitserial.Stripes) Counters {
	t.Helper()
	m, ok := e.(Metered)
	if !ok {
		t.Fatalf("%T is not Metered", e)
	}
	return m.Counters()
}

func TestRedundancyVote(t *testing.T) {
	cases := []struct {
		name   string
		copies int
		vals   []uint64
		want   uint64
		wantC  Counters
	}{
		{
			name: "unanimous", copies: 3, vals: []uint64{7, 7, 7}, want: 7,
			wantC: Counters{Calls: 1, Executions: 3},
		},
		{
			name: "majority outvotes one fault", copies: 3, vals: []uint64{5, 9, 5}, want: 5,
			wantC: Counters{Calls: 1, Executions: 3, Disagreements: 1},
		},
		{
			name: "three-way tie arbitrated", copies: 3, vals: []uint64{1, 2, 3, 2}, want: 2,
			wantC: Counters{Calls: 1, Executions: 4, Retries: 1, Disagreements: 1},
		},
		{
			name: "arbiter unmatched ships its own", copies: 4, vals: []uint64{1, 1, 2, 3, 9}, want: 9,
			wantC: Counters{Calls: 1, Executions: 5, Retries: 1, Disagreements: 1},
		},
		{
			name: "dmr agreement", copies: 2, vals: []uint64{6, 6}, want: 6,
			wantC: Counters{Calls: 1, Executions: 2},
		},
		{
			name: "dmr mismatch arbitrated", copies: 2, vals: []uint64{6, 8, 8}, want: 8,
			wantC: Counters{Calls: 1, Executions: 3, Retries: 1, Disagreements: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := &scriptedEngine{vals: tc.vals}
			eng, err := Redundancy{Copies: tc.copies}.Wrap(stub)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eng.DotProduct([]uint64{1}, []uint64{1})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("voted value = %d, want %d", got, tc.want)
			}
			if c := counters(t, eng); c != tc.wantC {
				t.Errorf("counters = %+v, want %+v", c, tc.wantC)
			}
		})
	}
}

func TestParityDetectAndRetry(t *testing.T) {
	t.Run("retry until clean", func(t *testing.T) {
		// First execution moves the parity counter, the re-run is clean.
		stub := &scriptedEngine{vals: []uint64{11, 22}, dirty: []bool{true, false}}
		eng, err := Parity{Retries: 3}.Wrap(stub)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.DotProduct([]uint64{1}, []uint64{1})
		if err != nil {
			t.Fatal(err)
		}
		if got != 22 {
			t.Errorf("value = %d, want the clean re-run's 22", got)
		}
		want := Counters{Calls: 1, Executions: 2, Retries: 1}
		if c := counters(t, eng); c != want {
			t.Errorf("counters = %+v, want %+v", c, want)
		}
	})
	t.Run("budget exhausted gives up", func(t *testing.T) {
		stub := &scriptedEngine{vals: []uint64{5}, dirty: []bool{true}}
		eng, err := Parity{Retries: 2}.Wrap(stub)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.DotProduct([]uint64{1}, []uint64{1})
		if err != nil {
			t.Fatal(err)
		}
		if got != 5 {
			t.Errorf("value = %d, want the last attempt's 5", got)
		}
		want := Counters{Calls: 1, Executions: 3, Retries: 2, GaveUp: 1}
		if c := counters(t, eng); c != want {
			t.Errorf("counters = %+v, want %+v", c, want)
		}
	})
	t.Run("zero retries is detect-only", func(t *testing.T) {
		stub := &scriptedEngine{vals: []uint64{5}, dirty: []bool{true}}
		eng, err := Parity{Retries: 0}.Wrap(stub)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.DotProduct([]uint64{1}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		want := Counters{Calls: 1, Executions: 1, GaveUp: 1}
		if c := counters(t, eng); c != want {
			t.Errorf("counters = %+v, want %+v", c, want)
		}
	})
	t.Run("no meter never fires", func(t *testing.T) {
		fast, err := bitserial.NewFastEngine(4, 16)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Parity{Retries: 3}.Wrap(fast)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.DotProduct([]uint64{3, 5}, []uint64{7, 9}); err != nil {
			t.Fatal(err)
		}
		want := Counters{Calls: 1, Executions: 1}
		if c := counters(t, eng); c != want {
			t.Errorf("counters = %+v, want %+v", c, want)
		}
	})
}

// TestCleanEngineTransparency pins that wrapping the production
// FastEngine changes nothing: every scheme's protected datapath is
// value-identical to the bare engine on a clean channel.
func TestCleanEngineTransparency(t *testing.T) {
	const bits, terms = 4, 16
	rng := rand.New(rand.NewSource(3))
	neurons := make([]uint64, terms)
	synapses := make([]uint64, terms)
	for i := range neurons {
		neurons[i] = uint64(rng.Int63n(16))
		synapses[i] = uint64(rng.Int63n(16))
	}

	ref, err := bitserial.NewFastEngine(bits, terms)
	if err != nil {
		t.Fatal(err)
	}
	wantDP, _, err := ref.DotProduct(neurons, synapses)
	if err != nil {
		t.Fatal(err)
	}

	for _, scheme := range []Scheme{TMR(), Redundancy{Copies: 2}, Parity{Retries: 3}, DefaultGuardBand()} {
		base, err := bitserial.NewFastEngine(bits, terms)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := scheme.Wrap(base)
		if err != nil {
			t.Fatal(err)
		}
		gotDP, _, err := eng.DotProduct(neurons, synapses)
		if err != nil {
			t.Fatal(err)
		}
		if gotDP != wantDP {
			t.Errorf("%s: DotProduct = %d, want %d", scheme.Name(), gotDP, wantDP)
		}
	}
}

func TestSchemeValidateBounds(t *testing.T) {
	bad := []Scheme{
		Redundancy{Copies: 1},
		Redundancy{Copies: maxCopies + 1},
		Parity{Retries: -1},
		Parity{Retries: maxRetries + 1},
		GuardBand{TrimFactor: -0.1, ThresholdGuard: 2, RecalEvery: 1},
		GuardBand{TrimFactor: 1.5, ThresholdGuard: 2, RecalEvery: 1},
		GuardBand{ThresholdGuard: 0.5, RecalEvery: 1},
		GuardBand{ThresholdGuard: 2, RecalEvery: 0},
		GuardBand{ThresholdGuard: 2, RecalEvery: 1, ExtraTuningSteps: 100},
		GuardBand{ThresholdGuard: 2, RecalEvery: 1, ExtraBiasKelvin: 200},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s %+v: Validate accepted", s.Name(), s)
		}
		if _, err := s.Wrap(&scriptedEngine{vals: []uint64{0}}); err == nil {
			t.Errorf("%s %+v: Wrap accepted", s.Name(), s)
		}
	}
	for _, s := range []Scheme{TMR(), Redundancy{Copies: 2}, Parity{}, Parity{Retries: maxRetries}, DefaultGuardBand()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate rejected the stock recipe: %v", s.Name(), err)
		}
	}
}

// TestOverheadsNeverFree pins the pricing contract: every scheme on
// every design validates, and on the designs where the scheme does
// anything at all, at least one factor is strictly above 1.
func TestOverheadsNeverFree(t *testing.T) {
	designs := []arch.Design{arch.EE, arch.OE, arch.OO}
	for _, s := range []Scheme{TMR(), Redundancy{Copies: 2}, Parity{Retries: 3}, DefaultGuardBand()} {
		for _, d := range designs {
			o := s.Overhead(d)
			if err := o.Validate(); err != nil {
				t.Errorf("%s on %v: %v", s.Name(), d, err)
				continue
			}
			free := o.OpticalFactor == 1 && o.ElectricalFactor == 1 &&
				o.ExecutionFactor == 1 && o.LaserFactor == 1 && o.TuningFactor == 1
			// GuardBand on EE is the one legitimate no-op: nothing to
			// guard-band on an all-electrical design.
			if free && !(s.Name() == "guardband" && d == arch.EE) {
				t.Errorf("%s on %v prices as free: %+v", s.Name(), d, o)
			}
		}
	}
}

func TestGuardBandDerate(t *testing.T) {
	g := DefaultGuardBand()
	dr := g.Derate()
	if dr == (Derate{}) {
		t.Fatal("default guardband derate is zero")
	}
	if dr.TrimFactor != g.TrimFactor || dr.ExtraTuningSteps != g.ExtraTuningSteps ||
		dr.ThresholdGuard != g.ThresholdGuard || dr.ExtraBiasKelvin != g.ExtraBiasKelvin {
		t.Errorf("derate %+v does not mirror the scheme %+v", dr, g)
	}
	for _, s := range []Scheme{TMR(), Parity{Retries: 1}} {
		if s.Derate() != (Derate{}) {
			t.Errorf("%s: datapath scheme has a non-zero derate", s.Name())
		}
	}
	// Wrap is the identity: guardband acts before faults exist.
	stub := &scriptedEngine{vals: []uint64{1}}
	eng, err := g.Wrap(stub)
	if err != nil {
		t.Fatal(err)
	}
	if eng != bitserial.Stripes(stub) {
		t.Error("guardband Wrap is not the identity")
	}
}
