package bitserial

import (
	"testing"
	"testing/quick"
)

func TestOffsetCodecRange(t *testing.T) {
	c, err := NewOffsetCodec(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.MinValue() != -128 || c.MaxValue() != 127 || c.Bits() != 8 {
		t.Errorf("codec bounds wrong: %+v", c)
	}
	if u, err := c.Encode(0); err != nil || u != 128 {
		t.Errorf("Encode(0) = %d, %v; want the offset 128", u, err)
	}
	if _, err := c.Encode(-129); err == nil {
		t.Error("-129 should be out of range")
	}
	if _, err := c.Encode(128); err == nil {
		t.Error("128 should be out of range")
	}
	u, err := c.Encode(-128)
	if err != nil || u != 0 {
		t.Errorf("Encode(-128) = %d, %v; want 0", u, err)
	}
	u, _ = c.Encode(127)
	if u != 255 {
		t.Errorf("Encode(127) = %d, want 255", u)
	}
}

func TestNewOffsetCodecValidation(t *testing.T) {
	if _, err := NewOffsetCodec(1); err == nil {
		t.Error("1-bit signed should error")
	}
	if _, err := NewOffsetCodec(25); err == nil {
		t.Error("25-bit should error")
	}
}

// signedDot is a signed MAC as the units build one: the offset codec
// around the unsigned engine's DotProduct.
func signedDot(t testing.TB, bits, terms int) func(ns, ss []int64) (int64, error) {
	t.Helper()
	c, err := NewOffsetCodec(bits)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(bits, terms)
	if err != nil {
		t.Fatal(err)
	}
	return func(ns, ss []int64) (int64, error) {
		return c.DotProduct(ns, ss, func(us, ws []uint64) (uint64, error) {
			v, _, err := e.DotProduct(us, ws)
			return v, err
		})
	}
}

func TestSignedMultiplyKnownValues(t *testing.T) {
	dot := signedDot(t, 8, 4)
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{5, 7, 35},
		{-5, 7, -35},
		{5, -7, -35},
		{-5, -7, 35},
		{-128, 127, -16256},
		{-128, -128, 16384},
		{127, 127, 16129},
	}
	for _, c := range cases {
		got, err := dot([]int64{c.a}, []int64{c.b})
		if err != nil || got != c.want {
			t.Errorf("Multiply(%d,%d) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestSignedMultiplyProperty(t *testing.T) {
	dot := signedDot(t, 8, 1)
	f := func(a, b int8) bool {
		got, err := dot([]int64{int64(a)}, []int64{int64(b)})
		return err == nil && got == int64(a)*int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSignedDotProductProperty(t *testing.T) {
	const terms = 16
	dot := signedDot(t, 6, terms)
	f := func(raw [terms * 2]int8) bool {
		ns := make([]int64, terms)
		ss := make([]int64, terms)
		var want int64
		for i := 0; i < terms; i++ {
			ns[i] = int64(raw[i]) % 32 // 6-bit signed range
			ss[i] = int64(raw[terms+i]) % 32
			want += ns[i] * ss[i]
		}
		got, err := dot(ns, ss)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignedDotProductValidation(t *testing.T) {
	dot := signedDot(t, 8, 4)
	if _, err := dot([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := dot([]int64{999}, []int64{1}); err == nil {
		t.Error("out-of-range operand should error")
	}
}

func TestCodecCorrectAgainstAlgebra(t *testing.T) {
	c, _ := NewOffsetCodec(4)
	// n = (-3, 2), s = (7, -8); o = 8.
	ns := []int64{-3, 2}
	ss := []int64{7, -8}
	us, _ := c.EncodeVector(ns)
	ws, _ := c.EncodeVector(ss)
	var raw, sumU, sumW uint64
	for i := range us {
		raw += us[i] * ws[i]
		sumU += us[i]
		sumW += ws[i]
	}
	got, err := c.Correct(raw, sumU, sumW, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(-3*7 + 2*(-8)); got != want {
		t.Errorf("Correct = %d, want %d", got, want)
	}
}
