package pixel

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestDesignsAndStrings(t *testing.T) {
	if len(Designs()) != 3 {
		t.Fatal("expected three designs")
	}
	names := []string{"EE", "OE", "OO"}
	for i, d := range Designs() {
		if d.String() != names[i] {
			t.Errorf("design %d string = %q, want %q", i, d, names[i])
		}
	}
}

// TestDesignText pins Design's JSON text form: the three names
// round-trip, an unknown name surfaces ErrUnknownDesign (also through
// ReadResultsJSON), and an out-of-range value still marshals, as its
// String.
func TestDesignText(t *testing.T) {
	for _, c := range []struct {
		d    Design
		json string
	}{
		{EE, `"EE"`},
		{OE, `"OE"`},
		{OO, `"OO"`},
		{Design(9), `"Design(9)"`},
		{Design(-1), `"Design(-1)"`},
	} {
		buf, err := json.Marshal(c.d)
		if err != nil || string(buf) != c.json {
			t.Errorf("marshal %d = %s, %v; want %s", int(c.d), buf, err, c.json)
			continue
		}
		var back Design
		err = json.Unmarshal(buf, &back)
		if _, known := ParseDesign(c.d.String()); known != nil {
			if !errors.Is(err, ErrUnknownDesign) {
				t.Errorf("unmarshal %s: err = %v, want ErrUnknownDesign", buf, err)
			}
			continue
		}
		if err != nil || back != c.d {
			t.Errorf("unmarshal %s = %v, %v; want %v", buf, back, err, c.d)
		}
	}
	if _, err := ReadResultsJSON(strings.NewReader(`[{"network":"LeNet","design":"XX"}]`)); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("ReadResultsJSON unknown design: err = %v, want ErrUnknownDesign", err)
	}
}

func TestNetworksList(t *testing.T) {
	nets := Networks()
	if len(nets) != 6 {
		t.Fatalf("networks = %v", nets)
	}
	want := map[string]bool{"VGG16": true, "AlexNet": true, "ZFNet": true,
		"ResNet-34": true, "LeNet": true, "GoogLeNet": true}
	for _, n := range nets {
		if !want[n] {
			t.Errorf("unexpected network %q", n)
		}
	}
}

func TestEvaluate(t *testing.T) {
	r, err := EvaluateContext(context.Background(), "LeNet", Point{OO, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ <= 0 || r.LatencyS <= 0 || r.EDP <= 0 {
		t.Errorf("degenerate result %+v", r)
	}
	if len(r.PerLayer) != 5 {
		t.Errorf("LeNet has 5 layers, got %d", len(r.PerLayer))
	}
	b := r.Breakdown
	sum := b.Act + b.Add + b.Comm + b.Laser + b.Mul + b.OtoE
	if diff := sum - r.EnergyJ; diff > 1e-9*r.EnergyJ || diff < -1e-9*r.EnergyJ {
		t.Error("breakdown must sum to the total energy")
	}
	if _, err := EvaluateContext(context.Background(), "NopeNet", Point{EE, 4, 8}); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("unknown network: err = %v, want ErrUnknownNetwork", err)
	}
	if _, err := EvaluateContext(context.Background(), "LeNet", Point{EE, 0, 8}); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("invalid config: err = %v, want ErrBadPrecision", err)
	}
}

func TestAreaOrderingPublic(t *testing.T) {
	ee, err := AreaContext(context.Background(), Point{EE, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	oe, _ := AreaContext(context.Background(), Point{OE, 4, 4})
	oo, _ := AreaContext(context.Background(), Point{OO, 4, 4})
	if !(ee < oe && oe < oo) {
		t.Errorf("area ordering violated: %g %g %g", ee, oe, oo)
	}
	if _, err := AreaContext(context.Background(), Point{EE, 0, 4}); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("invalid config: err = %v, want ErrBadPrecision", err)
	}
}

func TestExperimentsRunThroughPublicAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) != 9 {
		t.Fatalf("experiments = %v", ids)
	}
	var sb strings.Builder
	if err := RunExperiment("table1", &sb, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Conv1") {
		t.Error("table1 output missing Conv1")
	}
	sb.Reset()
	if err := RunExperiment("fig10", &sb, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "#") {
		t.Error("CSV output should start with the title comment")
	}
	if err := RunExperiment("nope", &sb, false); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestMeasureHeadlinesPopulated(t *testing.T) {
	h := MeasureHeadlines()
	if h.OOEDPImprovement <= h.OEEDPImprovement {
		t.Error("OO must improve EDP more than OE")
	}
	if h.MulSaving < 0.9 {
		t.Errorf("mul saving = %v, want ~0.95", h.MulSaving)
	}
}

func TestMACAllDesignsAgree(t *testing.T) {
	macs := map[Design]*MAC{}
	for _, d := range Designs() {
		m, err := NewMAC(d, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if m.Design() != d {
			t.Errorf("Design() = %v, want %v", m.Design(), d)
		}
		macs[d] = m
	}
	f := func(a, b uint8) bool {
		want := uint64(a) * uint64(b)
		for _, m := range macs {
			got, err := m.Multiply(uint64(a), uint64(b))
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMACDotProductAndMetering(t *testing.T) {
	m, err := NewMAC(OO, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.DotProduct([]uint64{2, 4, 6, 9}, []uint64{6, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*6+4*1+6*2+9*3 {
		t.Errorf("dot = %d", got)
	}
	e := m.EnergyJ()
	if e["mul"] <= 0 || e["add"] <= 0 || e["laser"] <= 0 {
		t.Errorf("optical MAC should meter energy, got %v", e)
	}
	if m.LatencyS() <= 0 {
		t.Error("latency should be metered")
	}
	// EE adapter meters nothing (documented).
	ee, _ := NewMAC(EE, 8, 4)
	if _, err := ee.DotProduct([]uint64{1, 2}, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if len(ee.EnergyJ()) != 0 {
		t.Error("EE MAC meters no energy by design")
	}

	// A dot product longer than the terms the MAC was built for would
	// overflow its accumulator; it is rejected, never wrapped.
	for _, d := range Designs() {
		m, err := NewMAC(d, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		u := []uint64{15, 15, 15, 15}
		if got, err := m.DotProduct(u, u); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%v: 4-term dot on a 1-term MAC = %d, %v; want ErrBadSpec", d, got, err)
		}
		s := []int64{7, 7, 7, 7}
		if got, err := m.SignedDotProduct(s, s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%v: 4-term signed dot on a 1-term MAC = %d, %v; want ErrBadSpec", d, got, err)
		}
		if got, err := m.DotProduct(u[:1], u[:1]); err != nil || got != 225 {
			t.Errorf("%v: 1-term dot = %d, %v; want 225", d, got, err)
		}
	}
}

func TestMACSignedDotProductAllDesigns(t *testing.T) {
	a := []int64{-3, 2, -15, 7}
	b := []int64{7, -8, 1, -1}
	want := int64(-3*7 + 2*(-8) + -15 + -7)
	for _, d := range Designs() {
		m, err := NewMAC(d, 6, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SignedDotProduct(a, b)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if got != want {
			t.Errorf("%v signed dot = %d, want %d", d, got, want)
		}
	}
}

func TestNewMACValidation(t *testing.T) {
	if _, err := NewMAC(EE, 0, 1); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("bits 0: err = %v, want ErrBadPrecision", err)
	}
	if _, err := NewMAC(EE, 17, 1); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("bits 17: err = %v, want ErrBadPrecision", err)
	}
	if _, err := NewMAC(Design(9), 8, 1); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("unknown design: err = %v, want ErrUnknownDesign", err)
	}
	for _, d := range Designs() {
		if _, err := NewMAC(d, 8, 0); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%v terms 0: err = %v, want ErrBadSpec", d, err)
		}
	}
}
