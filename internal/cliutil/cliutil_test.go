package cliutil

import (
	"errors"
	"reflect"
	"testing"

	"pixel"
	"pixel/internal/arch"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 2, 4,8 ,16")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 4, 8, 16}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseInts = %v, want %v", got, want)
	}
	if _, err := ParseInts("2,x"); err == nil {
		t.Error("non-integer accepted")
	}
	for _, bad := range []string{"0", "-4", "2,0,8"} {
		if _, err := ParseInts(bad); !errors.Is(err, pixel.ErrBadPrecision) {
			t.Errorf("ParseInts(%q) err = %v, want ErrBadPrecision", bad, err)
		}
	}
}

func TestParseFloatAxis(t *testing.T) {
	got, err := ParseFloatAxis("0:0.5:5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	if len(got) != len(want) {
		t.Fatalf("ParseFloatAxis(0:0.5:5) = %v, want %v", got, want)
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("axis[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	got, err = ParseFloatAxis(" 0, 1.5,4 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0, 1.5, 4}) {
		t.Errorf("comma list = %v", got)
	}

	// A single-value range is just its start.
	got, err = ParseFloatAxis("2:1:2")
	if err != nil || !reflect.DeepEqual(got, []float64{2}) {
		t.Errorf("degenerate range = %v, %v", got, err)
	}

	for _, bad := range []string{
		"0:0.5", "0:0:5", "0:-1:5", "5:1:0", "-1:1:2", "1:1:Inf",
		"a,b", "-1,2", "NaN",
	} {
		if _, err := ParseFloatAxis(bad); err == nil {
			t.Errorf("ParseFloatAxis(%q) accepted", bad)
		}
	}
}

func TestParseNames(t *testing.T) {
	got := ParseNames(" AlexNet, ,VGG16 ,")
	if want := []string{"AlexNet", "VGG16"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseNames = %v, want %v", got, want)
	}
	if got := ParseNames(""); len(got) != 0 {
		t.Errorf("ParseNames(\"\") = %v, want empty", got)
	}
}

func TestParseArchDesign(t *testing.T) {
	for name, want := range map[string]arch.Design{"EE": arch.EE, "OE": arch.OE, "OO": arch.OO} {
		got, err := ParseArchDesign(name)
		if err != nil || got != want {
			t.Errorf("ParseArchDesign(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseArchDesign("ZZ"); err == nil {
		t.Error("unknown design accepted")
	}
}
