package trace

import (
	"math"
	"strings"
	"testing"

	"pixel/internal/optsim"
	"pixel/internal/photonics"
	"pixel/internal/phy"
)

const slot = 100 * phy.Picosecond

func TestWriteSignalCSV(t *testing.T) {
	s := optsim.NewOOK([]int{1, 0, 1}, 1e-3, slot, 0)
	var sb strings.Builder
	if err := WriteSignalCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 slots
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "slot,time_s,power_w") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "1,") || !strings.Contains(lines[2], ",0,") {
		t.Errorf("dark slot row = %q", lines[2])
	}
	if err := WriteSignalCSV(&sb, nil); err == nil {
		t.Error("nil signal should error")
	}
}

func TestSummarizeCleanSignal(t *testing.T) {
	s := optsim.NewOOK([]int{1, 0, 1, 1}, 1e-3, slot, 0)
	sum := Summarize(s, 1e-6)
	if sum.Slots != 4 || sum.LitSlots != 3 {
		t.Errorf("slots = %d/%d", sum.LitSlots, sum.Slots)
	}
	if math.Abs(sum.PeakPower-1e-3) > 1e-12 {
		t.Errorf("peak = %v", sum.PeakPower)
	}
	if math.Abs(sum.MeanPower-0.75e-3) > 1e-12 {
		t.Errorf("mean = %v", sum.MeanPower)
	}
	if !math.IsInf(sum.ExtinctionDB, 1) {
		t.Errorf("clean OOK extinction should be +Inf, got %v", sum.ExtinctionDB)
	}
}

func TestSummarizeLeakageExtinction(t *testing.T) {
	// A filtered signal with 20 dB leakage on the dark slots.
	s := optsim.NewOOK([]int{1, 1, 1}, 1e-3, slot, 0)
	leak := optsim.NewOOK([]int{0, 1, 0}, 1e-3, slot, 0)
	leak.Scale(complex(photonics.FieldLoss(20), 0))
	// Construct: slot 1 carries only leakage power.
	s.Amps[1] = leak.Amps[1]
	sum := Summarize(s, 1e-4)
	if sum.LitSlots != 2 {
		t.Fatalf("lit slots = %d", sum.LitSlots)
	}
	if math.Abs(sum.ExtinctionDB-20) > 0.1 {
		t.Errorf("extinction = %v dB, want ~20", sum.ExtinctionDB)
	}
}

func TestSummarizeDarkSignal(t *testing.T) {
	s := optsim.NewDark(4, slot, 0)
	sum := Summarize(s, 1e-6)
	if sum.LitSlots != 0 || sum.MinLitPower != 0 || sum.ExtinctionDB != 0 {
		t.Errorf("dark summary = %+v", sum)
	}
	// Negative threshold is clamped.
	if got := Summarize(s, -1); got.LitSlots != 0 {
		t.Error("negative threshold should clamp to zero")
	}
}
