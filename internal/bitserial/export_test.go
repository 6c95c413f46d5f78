package bitserial

// SetVecForTest exposes setVecForTest to the external test package,
// whose tests drive the batched engine through package qnn.
var SetVecForTest = setVecForTest
