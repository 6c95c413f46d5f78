package tensor

import "testing"

func TestArenaRecyclesStorage(t *testing.T) {
	a := NewArena()
	t1 := a.Get(2, 3, 4)
	if t1.H != 2 || t1.W != 3 || t1.C != 4 || len(t1.Data) != 24 {
		t.Fatalf("Get shape: %dx%dx%d len %d", t1.H, t1.W, t1.C, len(t1.Data))
	}
	data := &t1.Data[0]
	a.Put(t1)
	if len(a.free) != 1 {
		t.Fatalf("free = %d, want 1", len(a.free))
	}
	// A smaller request must reuse the retired backing array.
	t2 := a.Get(4, 3, 2)
	if &t2.Data[0] != data {
		t.Fatal("smaller Get did not reuse recycled storage")
	}
	if len(a.free) != 0 {
		t.Fatalf("free = %d, want 0", len(a.free))
	}
	// A larger request cannot.
	a.Put(t2)
	t3 := a.Get(5, 5, 5)
	if len(t3.Data) != 125 {
		t.Fatalf("len = %d", len(t3.Data))
	}
	if len(a.free) != 1 {
		t.Fatalf("free = %d, want 1 (small tensor still recycled)", len(a.free))
	}
}

func TestArenaGetContentsOverwritable(t *testing.T) {
	// Stale contents are allowed by contract; the shape must still be
	// exact so every element is addressable and a full overwrite covers
	// the whole logical tensor.
	a := NewArena()
	t1 := a.Get(1, 1, 8)
	for i := range t1.Data {
		t1.Data[i] = int64(i + 1)
	}
	a.Put(t1)
	t2 := a.Get(2, 2, 2)
	if t2.Len() != 8 || len(t2.Data) != 8 {
		t.Fatalf("len = %d/%d, want 8", t2.Len(), len(t2.Data))
	}
	for i := range t2.Data {
		t2.Data[i] = 0
	}
	if t2.At(1, 1, 1) != 0 {
		t.Fatal("overwrite did not reach every element")
	}
}

func TestArenaPutIgnoresNil(t *testing.T) {
	a := NewArena()
	a.Put(nil, nil)
	if len(a.free) != 0 {
		t.Fatalf("free = %d, want 0", len(a.free))
	}
	a.Put(nil, New(1, 1, 1), nil)
	if len(a.free) != 1 {
		t.Fatalf("free = %d, want 1", len(a.free))
	}
}

func TestArenaZeroAllocSteadyState(t *testing.T) {
	a := NewArena()
	a.Put(New(4, 4, 3))
	avg := testing.AllocsPerRun(100, func() {
		t1 := a.Get(4, 4, 3)
		a.Put(t1)
	})
	if avg != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f per cycle, want 0", avg)
	}
}
