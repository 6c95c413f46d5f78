package montecarlo

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
)

// BenchmarkPerturbedInference times one perturbed LeNet-OO trial
// inference per σ of the perfbench mc-yield axis {0.5, 1, 2}, cycling
// through every perturbed trial of root seeds 1–40 with 8 trials each,
// on the path a trial runs (the batched engine's clean values walked
// through the trial's engine). Trials whose rates are zero run no
// inference and are left out. It reports the flip density per
// inference alongside the time.
func BenchmarkPerturbedInference(b *testing.B) {
	net, err := BuildNetwork("lenet")
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Model: net.Model, Input: net.Input, Design: arch.OO,
		Bits: net.Bits, Terms: net.Terms, Variation: DefaultVariationModel()}
	clean, err := bitserial.NewBatchedStripes(spec.Bits, spec.Terms)
	if err != nil {
		b.Fatal(err)
	}
	type job struct {
		seed  int64
		trial int
		rates bitserial.FlipRates
	}
	for _, sigma := range []float64{0.5, 1, 2} {
		model := spec.Variation.Scale(sigma)
		var jobs []job
		for seed := int64(1); seed <= 40; seed++ {
			for trial := 0; trial < 8; trial++ {
				pert := model.Sample(rand.New(rand.NewSource(trialSeed(seed, trial, streamPerturb))))
				rates, err := model.Rates(pert, spec.Design)
				if err != nil {
					b.Fatal(err)
				}
				if !rates.Zero() {
					jobs = append(jobs, job{seed, trial, rates})
				}
			}
		}
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			var flips, exposed int64
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				spec.Seed = j.seed
				eng, err := newTrialEngine(spec, j.rates, j.trial)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := infer(context.Background(), spec, trialDotter{clean, eng}, 1); err != nil {
					b.Fatal(err)
				}
				flips += eng.InjectedFlips()
				exposed += eng.BitsExposed()
			}
			b.ReportMetric(float64(flips)/float64(b.N), "flips/op")
			b.ReportMetric(float64(flips)/float64(exposed), "BER")
		})
	}
}
