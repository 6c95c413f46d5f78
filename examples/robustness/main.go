// Robustness study: the physical failure modes the photonic designs
// must survive, and what the library reports when they bite.
//
//  1. Thermal drift: an uncontrolled ambient swing detunes the MRR
//     filters and corrupts the optical AND; the runtime tuning loop
//     re-locks within a few control steps.
//
//  2. WDM crosstalk: packing more wavelengths per waveguide closes the
//     eye through the ring filters' Lorentzian skirts; the channel-plan
//     checker finds the ceiling.
//
//  3. Receiver noise: launch power buys bit-error rate; the noise model
//     sizes the power for a 1e-12 link.
//
//  4. MZI synchronization: a mis-cut inter-stage waveguide breaks the
//     OO accumulation and is reported, not silently mis-added.
//
//  5. Monte-Carlo yield: all of the above composed — sampled per-part
//     device variation driven through the fault-injecting bit-serial
//     engine and a whole CNN, reported as a yield curve.
//
//  6. Mitigation: the same sweep re-run through a protection scheme —
//     every trial twice from the same random draws — showing the yield
//     a guard-band recovers and the energy it costs.
//
//     go run ./examples/robustness
package main

import (
	"context"
	"fmt"
	"log"

	"pixel"
	"pixel/internal/omac"
	"pixel/internal/photonics"
	"pixel/internal/phy"
	"pixel/internal/thermal"
)

func main() {
	fmt.Println("--- 1. thermal drift and the tuning loop")
	ring, err := thermal.NewRing(thermal.DefaultRingModel(), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uncontrolled lock tolerance: %.1f K\n", ring.Model.LockToleranceKelvin())
	fmt.Printf("ambient +2 K: locked = %v (rides within tolerance)\n", ring.Locked(2))
	fmt.Printf("ambient +5 K: locked = %v (drifted off channel)\n", ring.Locked(5))
	steps, err := ring.LockTime(5, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("controller re-locks after %d steps; heater now %s\n",
		steps, phy.FormatPower(ring.HeaterPower()))
	if _, err := ring.LockTime(-50, 200); err != nil {
		fmt.Printf("a -50 K swing is out of heater authority: %v\n", err)
	}
	bank, err := thermal.BankTuningPower(thermal.DefaultRingModel(), 128, 10, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady tuning power, 128-ring bank: %s\n\n", phy.FormatPower(bank))

	fmt.Println("--- 2. WDM crosstalk ceiling")
	plan := photonics.DefaultChannelPlan(128)
	pen, err := plan.PowerPenaltyDB()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("100 GHz grid, Q~10k rings, 128 channels: %.2f dB penalty (budget %.1f dB)\n",
		pen, plan.MaxPenaltyDB)
	dense := plan
	dense.Spacing = 0.2 * phy.Nanometer
	dense.RingFWHM = 0.3 * phy.Nanometer
	fmt.Printf("packing 4x denser with broad rings: max usable channels = %d\n", dense.MaxChannels())
	dense.Channels = 64
	fmt.Printf("forcing 64 channels anyway -> %v\n\n", dense.Check())

	fmt.Println("--- 3. receiver noise vs launch power")
	rx := photonics.DefaultReceiverNoise()
	for _, p := range []float64{1 * phy.Microwatt, 5 * phy.Microwatt, 20 * phy.Microwatt} {
		fmt.Printf("received %s -> BER %.2g\n", phy.FormatPower(p), rx.BER(p))
	}
	need, err := rx.RequiredPower(1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("power for a 1e-12 link: %s\n\n", phy.FormatPower(need))

	fmt.Println("--- 4. MZI chain synchronization fault")
	unit, err := omac.NewOOUnit(omac.DefaultConfig(4, 8), 1)
	if err != nil {
		log.Fatal(err)
	}
	v, err := unit.Multiply(200, 100, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy chain: 200 x 100 = %d\n", v)
	unit.InjectStageSkew(40 * phy.Picosecond)
	if _, err := unit.Multiply(200, 100, nil); err != nil {
		fmt.Printf("mis-cut inter-stage path -> %v\n", err)
	}

	fmt.Println("\n--- 5. Monte-Carlo yield under device variation")
	// Each trial fabricates one virtual OO part — resonance offset,
	// ambient excursion through the tuning loop above, MZI split error,
	// comparator threshold offset — and runs the tiny CNN through the
	// fault-injecting bit-serial engine. σ scales all four sigmas at
	// once; the run is a pure function of the seed.
	rep, err := pixel.RobustnessContext(context.Background(), pixel.RobustnessSpec{
		Network: "tiny",
		Design:  pixel.OO,
		Sigmas:  []float64{0, 1, 2, 4},
		Trials:  16,
		Seed:    11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s, %d trials/point, seed %d:\n",
		rep.Design, rep.Network, rep.Trials, rep.Seed)
	for _, pt := range rep.Points {
		fmt.Printf("  sigma %.1f: yield %.3f  argmax-ok %.3f  mean injected BER %.2g\n",
			pt.Sigma, pt.Yield, pt.ArgmaxRate, pt.MeanInjectedBER)
	}
	fmt.Printf("worst-case yield across the axis: %.3f\n", rep.MinYield())

	fmt.Println("\n--- 6. fault mitigation: unprotected vs guard-banded")
	// The identical sweep with a protection scheme: each trial re-runs
	// through the mitigation from the same fault draws (common random
	// numbers), so the two curves differ only by the protection. The
	// guard-band trims the resonance offset, re-centres the comparator
	// thresholds and deepens the thermal bias — attacking the rates
	// themselves — and its price shows up through the cost model.
	prot, err := pixel.RobustnessContext(context.Background(), pixel.RobustnessSpec{
		Network:    "tiny",
		Design:     pixel.OO,
		Sigmas:     []float64{0, 1, 2, 4},
		Trials:     16,
		Seed:       11,
		Protection: &pixel.ProtectionSpec{Scheme: "guardband"},
	})
	if err != nil {
		log.Fatal(err)
	}
	pr := prot.Protection
	fmt.Printf("scheme %s: energy x%.2f, latency x%.2f, area x%.2f — protection is not free\n",
		pr.Scheme, pr.EnergyOverhead, pr.LatencyOverhead, pr.AreaOverhead)
	for i, pt := range prot.Points {
		fmt.Printf("  sigma %.1f: yield %.3f -> %.3f protected\n",
			pt.Sigma, pt.Yield, pr.Points[i].Yield)
	}
	fmt.Printf("worst-case yield: %.3f unprotected -> %.3f protected\n",
		prot.MinYield(), pr.MinYield())
}
