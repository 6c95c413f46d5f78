package bitserial

import (
	"testing"
	"testing/quick"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, 1); err == nil {
		t.Error("bits 0 should error")
	}
	if _, err := NewEngine(25, 1); err == nil {
		t.Error("bits 25 should error")
	}
	if _, err := NewEngine(8, 0); err == nil {
		t.Error("terms 0 should error")
	}
	e, err := NewEngine(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bits() != 8 {
		t.Errorf("Bits = %d", e.Bits())
	}
	if e.accWidth != 20 { // 16 product bits + log2(16)
		t.Errorf("accumulator width = %d, want 20", e.accWidth)
	}
}

func TestMultiplyPaperExample(t *testing.T) {
	// Section II-B: INL0 element 2 (0010) x SL0 element 6 -> 12; and the
	// OO example operands 6 x 13 = 78.
	e, err := NewEngine(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := e.Multiply(2, 6)
	if err != nil || got != 12 {
		t.Errorf("2*6 = %d, %v; want 12", got, err)
	}
	if st.Cycles != 4 {
		t.Errorf("4-bit multiply should take 4 cycles, took %d", st.Cycles)
	}
	got, _, _ = e.Multiply(6, 13)
	if got != 78 {
		t.Errorf("6*13 = %d, want 78", got)
	}
}

func TestMultiplyMatchesIntegerMultiply(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 12, 16, 24} {
		e, err := NewEngine(bits, 1)
		if err != nil {
			t.Fatal(err)
		}
		mask := (uint64(1) << uint(bits)) - 1
		f := func(a, b uint64) bool {
			a &= mask
			b &= mask
			got, _, err := e.Multiply(a, b)
			return err == nil && got == a*b
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("bits=%d: %v", bits, err)
		}
	}
}

func TestMultiplyRejectsOutOfRange(t *testing.T) {
	e, _ := NewEngine(4, 1)
	if _, _, err := e.Multiply(16, 1); err == nil {
		t.Error("neuron out of range should error")
	}
	if _, _, err := e.Multiply(1, 16); err == nil {
		t.Error("synapse out of range should error")
	}
}

func TestDotProductPaperWindowExample(t *testing.T) {
	// Paper Section II-B: cycle-1 partial sum of INL elements 0 against
	// filter-0 synapse elements 0: 2*6 + 0*1 + 3*2 + 8*3 = 42.
	e, err := NewEngine(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.DotProduct([]uint64{2, 0, 3, 8}, []uint64{6, 1, 2, 3})
	if err != nil || got != 42 {
		t.Errorf("partial sum = %d, %v; want 42", got, err)
	}
}

func TestWindowPaperFullExample(t *testing.T) {
	// The full Section II-B window. The paper prints a final sum of 368,
	// but its own operands give 42 + 55 + 109 + 123 = 329 (the per-cycle
	// partial sums; cycle 1's 42 matches the paper exactly). We assert
	// the arithmetically correct value.
	// INL_i are the input neuron lanes, SL_i the synapse lanes of
	// filter 0; O_0 = sum_j sum_i INL_i[j] * SL_i[j].
	e, err := NewEngine(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]uint64{
		{2, 4, 6, 9}, // INL0
		{0, 1, 3, 4}, // INL1
		{3, 5, 1, 2}, // INL2
		{8, 2, 8, 6}, // INL3
	}
	filter0 := [][]uint64{
		{6, 9, 13, 11}, // SL0
		{1, 2, 1, 2},   // SL1
		{2, 3, 4, 5},   // SL2
		{3, 1, 3, 1},   // SL3
	}
	out, cycles := window(t, e, inputs, [][][]uint64{filter0})
	if out[0] != 329 {
		t.Errorf("window output = %d, want 329", out[0])
	}
	if cycles != 4*4 {
		t.Errorf("window cycles = %d, want 16 (4 elements x 4 bits)", cycles)
	}
}

// window is the PE computation of the paper's Figure 2a: for each filter
// k, O_k = sum_i INL_i · SL_k,i over the lanes. The lanes run in
// parallel, so the window takes one lane's cycles.
func window(t *testing.T, e *Engine, inputs [][]uint64, filters [][][]uint64) ([]uint64, int) {
	t.Helper()
	out := make([]uint64, len(filters))
	cycles := 0
	for k, filter := range filters {
		for lane := range filter {
			v, st, err := e.DotProduct(inputs[lane], filter[lane])
			if err != nil {
				t.Fatal(err)
			}
			out[k] += v
			cycles = max(cycles, st.Cycles)
		}
	}
	return out, cycles
}

func TestDotProductMatchesReference(t *testing.T) {
	e, _ := NewEngine(8, 64)
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		n := make([]uint64, len(raw))
		s := make([]uint64, len(raw))
		for i, v := range raw {
			n[i] = uint64(v & 0xFF)
			s[i] = uint64((v >> 8) & 0xFF)
		}
		got, _, err := e.DotProduct(n, s)
		return err == nil && got == ReferenceDot(n, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotProductLengthMismatch(t *testing.T) {
	e, _ := NewEngine(8, 4)
	if _, _, err := e.DotProduct([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestWindowMultipleFilters(t *testing.T) {
	e, _ := NewEngine(4, 8)
	inputs := [][]uint64{{1, 2}, {3, 4}}
	filters := [][][]uint64{
		{{1, 1}, {1, 1}}, // O_0 = 1+2+3+4 = 10
		{{2, 0}, {0, 2}}, // O_1 = 2*1 + 2*4 = 10
		{{0, 0}, {0, 0}}, // O_2 = 0
	}
	out, _ := window(t, e, inputs, filters)
	want := []uint64{10, 10, 0}
	for k := range want {
		if out[k] != want[k] {
			t.Errorf("filter %d: got %d want %d", k, out[k], want[k])
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	e, _ := NewEngine(4, 4)
	_, st, err := e.DotProduct([]uint64{3, 5}, []uint64{7, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two 4-bit multiplies: 2*4 bit-cycles, each with 4-bit AND arrays.
	if st.BitANDs != 2*4*4 {
		t.Errorf("BitANDs = %d, want 32", st.BitANDs)
	}
	if st.Shifts != 8 {
		t.Errorf("Shifts = %d, want 8", st.Shifts)
	}
	// 8 accumulate adds inside multiplies + 2 merge adds.
	if st.Adds != 10 {
		t.Errorf("Adds = %d, want 10", st.Adds)
	}
}
