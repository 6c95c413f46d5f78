package omac

import (
	"strings"
	"testing"
	"testing/quick"

	"pixel/internal/optsim"
)

func TestSignedDotProductKnown(t *testing.T) {
	oe, err := NewOEUnit(DefaultConfig(4, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewOOUnit(DefaultConfig(4, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int64{-3, 2, -15, 7}
	ss := []int64{7, -8, 1, -1}
	want := int64(-3*7 + 2*(-8) + -15*1 + 7*(-1))
	led := optsim.NewLedger()
	got, err := oe.SignedDotProduct(ns, ss, led)
	if err != nil || got != want {
		t.Errorf("OE signed dot = %d, %v; want %d", got, err, want)
	}
	got, err = oo.SignedDotProduct(ns, ss, led)
	if err != nil || got != want {
		t.Errorf("OO signed dot = %d, %v; want %d", got, err, want)
	}
	if led.Energy(optsim.CatAdd) <= 0 {
		t.Error("correction adders must charge energy")
	}
}

func TestSignedDotProductProperty(t *testing.T) {
	const bits, terms = 5, 4
	oo, err := NewOOUnit(DefaultConfig(4, bits), terms)
	if err != nil {
		t.Fatal(err)
	}
	lim := int64(1) << (bits - 1) // values in [-16, 15]
	f := func(raw [terms * 2]int8) bool {
		ns := make([]int64, terms)
		ss := make([]int64, terms)
		var want int64
		for i := 0; i < terms; i++ {
			ns[i] = int64(raw[i]) % lim
			ss[i] = int64(raw[terms+i]) % lim
			want += ns[i] * ss[i]
		}
		got, err := oo.SignedDotProduct(ns, ss, nil)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSignedDotProductValidation(t *testing.T) {
	oe, _ := NewOEUnit(DefaultConfig(4, 6), 4)
	if _, err := oe.SignedDotProduct([]int64{1}, []int64{1, 2}, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := oe.SignedDotProduct([]int64{1000}, []int64{1}, nil); err == nil {
		t.Error("out-of-range value should error")
	}
	// One bit has no signed range: the unit still serves unsigned work,
	// and its signed path reports the codec's precision error.
	oo1, err := NewOOUnit(DefaultConfig(4, 1), 4)
	if err != nil {
		t.Fatalf("1-bit unit: %v", err)
	}
	if _, err := oo1.SignedDotProduct([]int64{0}, []int64{0}, nil); err == nil || !strings.Contains(err.Error(), "signed precision 1") {
		t.Errorf("1-bit signed dot err = %v, want the codec's precision error", err)
	}
}

// TestSignedDotProductAllocs pins what the signed path allocates on
// top of the unsigned dot product it wraps: the two encoded operand
// vectors and nothing else. The offset codec is the unit's, built once
// at construction.
func TestSignedDotProductAllocs(t *testing.T) {
	ns := []int64{-3, 2, -15, 7}
	ss := []int64{7, -8, 1, -1}
	us := []uint64{29, 34, 17, 39} // ns and ss offset-encoded at 6 bits
	ws := []uint64{39, 24, 33, 31}
	oe, err := NewOEUnit(DefaultConfig(4, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewOOUnit(DefaultConfig(4, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	type unit interface {
		DotProduct(neurons, synapses []uint64, led *optsim.Ledger) (uint64, error)
		SignedDotProduct(ns, ss []int64, led *optsim.Ledger) (int64, error)
	}
	for name, u := range map[string]unit{"OE": oe, "OO": oo} {
		signed := testing.AllocsPerRun(100, func() {
			if _, err := u.SignedDotProduct(ns, ss, nil); err != nil {
				t.Fatal(err)
			}
		})
		unsigned := testing.AllocsPerRun(100, func() {
			if _, err := u.DotProduct(us, ws, nil); err != nil {
				t.Fatal(err)
			}
		})
		if extra := signed - unsigned; extra != 2 {
			t.Errorf("%s: signed path allocates %v more than the unsigned one, want 2 (the encoded operands)", name, extra)
		}
	}
}
