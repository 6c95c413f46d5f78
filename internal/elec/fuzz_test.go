package elec

import "testing"

// FuzzAddersAgree cross-checks the functional CLA against the host
// arithmetic on arbitrary operands.
func FuzzAddersAgree(f *testing.F) {
	f.Add(uint64(0), uint64(0), false)
	f.Add(uint64(1)<<63, uint64(1)<<63, true)
	f.Add(^uint64(0), uint64(1), false)
	f.Add(uint64(0xDEADBEEF), uint64(0xFEEDFACE), true)
	cla, err := NewCLAAdder(48)
	if err != nil {
		f.Fatal(err)
	}
	mask := uint64(1)<<48 - 1
	f.Fuzz(func(t *testing.T, x, y uint64, cin bool) {
		s1, c1 := cla.Add(x, y, cin)
		var ci uint64
		if cin {
			ci = 1
		}
		full := (x & mask) + (y & mask) + ci
		if s1 != full&mask || c1 != ((full>>48)&1 == 1) {
			t.Fatalf("CLA disagrees with arithmetic on %x+%x cin=%v: (%x,%v)", x, y, cin, s1, c1)
		}
	})
}
