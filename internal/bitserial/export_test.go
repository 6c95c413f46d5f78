package bitserial

// setVecForTest forces the vector kernels on or off, returning the
// previous setting; a no-op "on" when the build has no kernels. Tests
// and benchmarks use it to pin the scalar and vector sweeps against
// each other on the same host.
func setVecForTest(on bool) (prev bool) {
	prev = useVec
	useVec = on && sweepQuadDualVec != nil
	return prev
}

// SetVecForTest exposes setVecForTest to the external test package,
// whose tests drive the batched engine through package qnn.
var SetVecForTest = setVecForTest

// applyEngine is the per-element apply reference as a Stripes engine:
// DotProduct is refDotProduct on e's streams, and OddFlipWords is e's,
// so a parity guard reads its detector.
type applyEngine struct{ e *PerturbedEngine }

func (a applyEngine) DotProduct(neurons, synapses []uint64) (uint64, Stats, error) {
	if err := a.e.base.checkVectors(neurons, synapses); err != nil {
		return 0, Stats{}, err
	}
	return refDotProduct(a.e, neurons, synapses), a.e.base.dotStats(len(neurons)), nil
}

func (a applyEngine) OddFlipWords() int64 { return a.e.OddFlipWords() }

// ApplyEngine returns e driven through the apply reference instead of
// its masks, for FuzzFlipWalk in the external test package.
func ApplyEngine(e *PerturbedEngine) Stripes { return applyEngine{e} }
