package slots

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestImportAllOrNothing: a refused Import installs nothing — the store
// keeps exactly what it held — and an accepted one replaces it whole.
func TestImportAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		total int
		idx   []int
		vals  []string
	}{
		{"other total", 5, []int{0}, []string{"a"}},
		{"count mismatch", 4, []int{0, 1}, []string{"a"}},
		{"negative slot", 4, []int{0, -1}, []string{"a", "b"}},
		{"slot off the end", 4, []int{0, 4}, []string{"a", "b"}},
		{"slot twice", 4, []int{0, 1, 1}, []string{"a", "b", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New[string](4)
			s.Land(2, "kept")
			if err := s.Import(tc.total, tc.idx, tc.vals); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
			}
			idx, vals := s.Export()
			if !reflect.DeepEqual(idx, []int{2}) || !reflect.DeepEqual(vals, []string{"kept"}) {
				t.Fatalf("refused import changed the store: %v %v", idx, vals)
			}
		})
	}

	s := New[string](4)
	s.Land(2, "dropped")
	if err := s.Import(4, []int{3, 0}, []string{"d", "a"}); err != nil {
		t.Fatal(err)
	}
	if done, total := s.Progress(); done != 2 || total != 4 {
		t.Fatalf("progress = %d/%d, want 2/4", done, total)
	}
	idx, vals := s.Export()
	if !reflect.DeepEqual(idx, []int{0, 3}) || !reflect.DeepEqual(vals, []string{"a", "d"}) {
		t.Fatalf("export = %v %v, want slot order", idx, vals)
	}
	if got := s.Missing(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("missing = %v, want [1 2]", got)
	}
}

// TestLandFirstWriteWins: a slot keeps its first value.
func TestLandFirstWriteWins(t *testing.T) {
	s := New[int](2)
	if ok, n := s.Land(1, 10); !ok || n != 1 {
		t.Fatalf("first land = %v, %d", ok, n)
	}
	if ok, n := s.Land(1, 11); ok || n != 1 {
		t.Fatalf("second land = %v, %d", ok, n)
	}
	if got := s.Values(0, 2); !reflect.DeepEqual(got, []int{0, 10}) {
		t.Fatalf("values = %v", got)
	}
}

// TestFill: only empty slots evaluate, onLand sees strictly increasing
// counts once per fresh slot, and a failure keeps what landed.
func TestFill(t *testing.T) {
	s := New[int](64)
	if err := s.Import(64, []int{5, 9}, []int{-5, -9}); err != nil {
		t.Fatal(err)
	}
	last, calls := 2, 0
	err := s.Fill(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		if i == 5 || i == 9 {
			t.Errorf("restored slot %d evaluated again", i)
		}
		return i * i, nil
	}, func(i, r, landed int) {
		calls++
		if landed != last+1 || r != i*i {
			t.Errorf("onLand(%d, %d, %d) after count %d", i, r, landed, last)
		}
		last = landed
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 62 || last != 64 {
		t.Fatalf("onLand fired %d times up to %d, want 62 up to 64", calls, last)
	}
	if got := s.Values(4, 6); !reflect.DeepEqual(got, []int{16, -5}) {
		t.Fatalf("values = %v", got)
	}

	boom := errors.New("boom")
	f := New[int](8)
	err = f.Fill(context.Background(), 1, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if done, _ := f.Progress(); done != 3 {
		t.Fatalf("failed fill kept %d slots, want the 3 before the failure", done)
	}
}
