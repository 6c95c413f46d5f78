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
