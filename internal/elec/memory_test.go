package elec

import "testing"

func TestNewSRAMValidation(t *testing.T) {
	if _, err := NewSRAM(0, 8); err == nil {
		t.Error("zero words should error")
	}
	if _, err := NewSRAM(8, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := NewSRAM(1<<22, 32); err == nil {
		t.Error("over-capacity array should error")
	}
}

func TestSRAMCosts(t *testing.T) {
	s, err := NewSRAM(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bits() != 2048 {
		t.Errorf("Bits = %d", s.Bits())
	}
	if s.Leakage() <= 0 {
		t.Error("leakage must be positive")
	}
}

func TestSRAMScalesWithOrganization(t *testing.T) {
	small, _ := NewSRAM(64, 8)
	big, _ := NewSRAM(1024, 8)
	if big.Leakage() <= small.Leakage() {
		t.Error("larger arrays must cost more")
	}
}

func TestWeightRF(t *testing.T) {
	single, err := WeightRF(4, 16, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	double, err := WeightRF(4, 16, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if single.Words != 64 || double.Words != 128 {
		t.Errorf("RF words = %d / %d, want 64 / 128", single.Words, double.Words)
	}
	// Double buffering doubles leakage — the price of the pipelined
	// preload the mapper models.
	if double.Leakage() != 2*single.Leakage() {
		t.Error("double-buffered RF must leak twice as much")
	}
	if _, err := WeightRF(0, 1, 1, false); err == nil {
		t.Error("invalid RF parameters should error")
	}
}
