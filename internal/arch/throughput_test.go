package arch

import (
	"math"
	"testing"

	"pixel/internal/cnn"
)

func TestThroughputConsistency(t *testing.T) {
	cfg := MustConfig(OO, 4, 8)
	r, err := Throughput(cnn.AlexNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InferencesPerSecond <= 0 || r.AvgPowerW <= 0 || r.InferencesPerJoule <= 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	// Identities: rate = 1/latency, power = E/t, efficiency = 1/E.
	if math.Abs(r.InferencesPerSecond*r.LatencyPerInferenceS-1) > 1e-12 {
		t.Error("rate * latency != 1")
	}
	if math.Abs(r.AvgPowerW*r.LatencyPerInferenceS-r.EnergyPerInferenceJ) > 1e-12*r.EnergyPerInferenceJ {
		t.Error("power * latency != energy")
	}
	if math.Abs(r.InferencesPerJoule*r.EnergyPerInferenceJ-1) > 1e-12 {
		t.Error("efficiency * energy != 1")
	}
}

func TestThroughputLeNetFasterThanVGG(t *testing.T) {
	cfg := MustConfig(OE, 4, 8)
	small, err := Throughput(cnn.LeNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Throughput(cnn.VGG16(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.InferencesPerSecond <= big.InferencesPerSecond {
		t.Error("LeNet must run at a higher rate than VGG16")
	}
	if small.InferencesPerJoule <= big.InferencesPerJoule {
		t.Error("LeNet must be more efficient per inference than VGG16")
	}
}

func TestBestDesignByEfficiencyIsOOAtHighBits(t *testing.T) {
	var best ThroughputReport
	var bestD Design
	for _, d := range Designs() {
		r, err := Throughput(cnn.AlexNet(), MustConfig(d, 4, 16))
		if err != nil {
			t.Fatal(err)
		}
		if r.InferencesPerJoule <= 0 {
			t.Errorf("%v: efficiency must be positive", d)
		}
		if r.InferencesPerJoule > best.InferencesPerJoule {
			best, bestD = r, d
		}
	}
	if bestD != OO {
		t.Errorf("best design at 4 lanes/16 bits = %v, want OO", bestD)
	}
}

func TestThroughputRejectsInvalidConfig(t *testing.T) {
	cfg := MustConfig(EE, 4, 8)
	cfg.Lanes = 0
	if _, err := Throughput(cnn.LeNet(), cfg); err == nil {
		t.Error("invalid config should error")
	}
}
