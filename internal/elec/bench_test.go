package elec

import "testing"

func BenchmarkCLAAdd32(b *testing.B) {
	a, err := NewCLAAdder(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(uint64(i), uint64(i)*2654435761, false)
	}
}
