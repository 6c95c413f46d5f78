package omac

import (
	"testing"
	"testing/quick"

	"pixel/internal/bitserial"
	"pixel/internal/optsim"
)

// paperWindow returns the Section II-B operands shaped for the
// ensemble: inputs[i][j] = element j of lane i; one filter per OMAC.
func paperWindow() ([][]uint64, [][][]uint64) {
	inputs := [][]uint64{
		{2, 4, 6, 9},
		{0, 1, 3, 4},
		{3, 5, 1, 2},
		{8, 2, 8, 6},
	}
	filter0 := [][]uint64{
		{6, 9, 13, 11},
		{1, 2, 1, 2},
		{2, 3, 4, 5},
		{3, 1, 3, 1},
	}
	// Four OMACs need four filters; replicate filter 0 with small
	// variations so each output is distinct.
	synapses := [][][]uint64{filter0, nil, nil, nil}
	for k := 1; k < 4; k++ {
		f := make([][]uint64, 4)
		for i := range filter0 {
			f[i] = make([]uint64, 4)
			for j := range filter0[i] {
				f[i][j] = (filter0[i][j] + uint64(k)) % 16
			}
		}
		synapses[k] = f
	}
	return inputs, synapses
}

func TestEnsembleWindowMatchesStripes(t *testing.T) {
	e, err := NewEnsemble(DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	inputs, synapses := paperWindow()
	led := optsim.NewLedger()
	got, err := e.Window(inputs, synapses, led)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bitserial.NewEngine(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Window(inputs, synapses)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("filter %d: ensemble %d, stripes %d", k, got[k], want[k])
		}
	}
	if got[0] != 329 {
		t.Errorf("filter 0 = %d, want 329 (the paper's window, corrected)", got[0])
	}
	if led.Energy(optsim.CatMul) <= 0 || led.Energy(optsim.CatLaser) <= 0 {
		t.Error("ensemble must meter optical energy")
	}
}

func TestEnsembleWindowProperty(t *testing.T) {
	const l, bits = 2, 4
	e, err := NewEnsemble(DefaultConfig(l, bits))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bitserial.NewEngine(bits, l*l)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [l*l + l*l*l]uint8) bool {
		inputs := make([][]uint64, l)
		for i := range inputs {
			inputs[i] = make([]uint64, l)
			for j := range inputs[i] {
				inputs[i][j] = uint64(raw[i*l+j]) % 16
			}
		}
		synapses := make([][][]uint64, l)
		for k := range synapses {
			synapses[k] = make([][]uint64, l)
			for i := range synapses[k] {
				synapses[k][i] = make([]uint64, l)
				for j := range synapses[k][i] {
					synapses[k][i][j] = uint64(raw[l*l+(k*l+i)*l+j]) % 16
				}
			}
		}
		got, err := e.Window(inputs, synapses, nil)
		if err != nil {
			return false
		}
		want, _, err := ref.Window(inputs, synapses)
		if err != nil {
			return false
		}
		for k := range want {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnsembleBroadcastAmortizesTransmitEnergy(t *testing.T) {
	// The bus-level ensemble modulates each word once for all L
	// filters; running the same window as L independent per-pair
	// units retransmits per filter. The ensemble's comm+laser must be
	// well below L times cheaper is the wrong direction: it must be
	// below the independent total by roughly the filter count.
	cfg := DefaultConfig(4, 4)
	e, err := NewEnsemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs, synapses := paperWindow()
	ledBus := optsim.NewLedger()
	if _, err := e.Window(inputs, synapses, ledBus); err != nil {
		t.Fatal(err)
	}

	unit, err := NewOEUnit(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	ledUnit := optsim.NewLedger()
	if _, err := unit.Window(inputs, synapses, ledUnit); err != nil {
		t.Fatal(err)
	}

	busTx := ledBus.Energy(optsim.CatComm) + ledBus.Energy(optsim.CatLaser)
	unitTx := ledUnit.Energy(optsim.CatComm) + ledUnit.Energy(optsim.CatLaser)
	if busTx >= unitTx/2 {
		t.Errorf("broadcast should amortize transmission: bus %.3g J vs per-pair %.3g J", busTx, unitTx)
	}
	// The AND work itself is identical in count, so mul energy should
	// agree within a small factor.
	if ratio := ledBus.Energy(optsim.CatMul) / ledUnit.Energy(optsim.CatMul); ratio < 0.5 || ratio > 2 {
		t.Errorf("mul energy ratio bus/per-pair = %.2f, want ~1", ratio)
	}
}

func TestOOEnsembleWindowMatchesStripes(t *testing.T) {
	e, err := NewOOEnsemble(DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	inputs, synapses := paperWindow()
	led := optsim.NewLedger()
	got, err := e.Window(inputs, synapses, led)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bitserial.NewEngine(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Window(inputs, synapses)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("filter %d: OO ensemble %d, stripes %d", k, got[k], want[k])
		}
	}
	// The MZI chains replace the wide electrical accumulation: the OO
	// ensemble's add energy must be far below the OE ensemble's.
	oe, err := NewEnsemble(DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ledOE := optsim.NewLedger()
	if _, err := oe.Window(inputs, synapses, ledOE); err != nil {
		t.Fatal(err)
	}
	if led.Energy(optsim.CatAdd) >= ledOE.Energy(optsim.CatAdd) {
		t.Errorf("OO ensemble add %.3g should be below OE ensemble add %.3g",
			led.Energy(optsim.CatAdd), ledOE.Energy(optsim.CatAdd))
	}
}

func TestOOEnsembleValidation(t *testing.T) {
	if _, err := NewOOEnsemble(DefaultConfig(0, 4)); err == nil {
		t.Error("invalid config should error")
	}
	e, err := NewOOEnsemble(DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	good := [][]uint64{{1, 2}, {3, 4}}
	goodS := [][][]uint64{{{1, 1}, {1, 1}}, {{2, 2}, {2, 2}}}
	if _, err := e.Window(good, goodS, nil); err != nil {
		t.Fatalf("valid window failed: %v", err)
	}
	if _, err := e.Window(good[:1], goodS, nil); err == nil {
		t.Error("short input should error")
	}
	if _, err := e.Window([][]uint64{{99, 2}, {3, 4}}, goodS, nil); err == nil {
		t.Error("oversized operand should error")
	}
	if _, err := e.Window(good, [][][]uint64{{{1, 1}}, {{2, 2}, {2, 2}}}, nil); err == nil {
		t.Error("ragged filter should error")
	}
}

func TestEnsembleShapeValidation(t *testing.T) {
	oe, err := NewEnsemble(DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewOOEnsemble(DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	ensembles := []struct {
		name   string
		window func([][]uint64, [][][]uint64, *optsim.Ledger) ([]uint64, error)
	}{{"OE", oe.Window}, {"OO", oo.Window}}
	good := [][]uint64{{1, 2}, {3, 4}}
	goodS := [][][]uint64{{{1, 1}, {1, 1}}, {{2, 2}, {2, 2}}}
	cases := []struct {
		name string
		in   [][]uint64
		sy   [][][]uint64
	}{
		{"too few lanes", [][]uint64{{1, 2}}, goodS},
		{"ragged lane", [][]uint64{{1}, {3, 4}}, goodS},
		{"empty trailing lane", [][]uint64{{1, 2}, {}}, goodS},
		{"too few filters", good, goodS[:1]},
		{"ragged filter", good, [][][]uint64{{{1, 1}}, {{2, 2}, {2, 2}}}},
		{"oversized operand", [][]uint64{{99, 2}, {3, 4}}, goodS},
		{"oversized synapse", good, [][][]uint64{{{99, 1}, {1, 1}}, {{2, 2}, {2, 2}}}},
	}
	for _, en := range ensembles {
		if _, err := en.window(good, goodS, nil); err != nil {
			t.Fatalf("%s: valid window failed: %v", en.name, err)
		}
		for _, c := range cases {
			if _, err := en.window(c.in, c.sy, nil); err == nil {
				t.Errorf("%s %s: expected error", en.name, c.name)
			}
		}
	}
}

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(DefaultConfig(0, 4)); err == nil {
		t.Error("invalid config should error")
	}
}
