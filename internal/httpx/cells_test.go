package httpx

import (
	"errors"
	"slices"
	"testing"

	"pixel"
	"pixel/api"
	"pixel/internal/slots"
)

// TestSweepCells: a network listed twice lands in both of its entries
// and counts twice, the partial lists it once sorted by network then
// row, and Import installs a partial whole or refuses it whole.
func TestSweepCells(t *testing.T) {
	c := NewSweepCells([]string{"ZFNet", "LeNet", "ZFNet"}, 2)
	row := func(n string, bits int) pixel.Result { return pixel.Result{Network: n, Bits: bits} }
	for _, land := range []struct {
		network string
		row     int
		want    int
	}{
		{"ZFNet", 1, 2},
		{"LeNet", 0, 1},
		{"ZFNet", 1, 0}, // already landed
		{"LeNet", 2, 0}, // off the grid
		{"VGG16", 0, 0}, // not in the request
		{"ZFNet", 0, 2},
	} {
		if got := c.Land(land.network, land.row, row(land.network, land.row)); got != land.want {
			t.Fatalf("Land(%s, %d) = %d, want %d", land.network, land.row, got, land.want)
		}
	}
	if done, total := c.Progress(); done != 5 || total != 6 {
		t.Fatalf("progress %d/%d, want 5/6", done, total)
	}
	partial := c.Partial()
	want := []api.JobCell{
		{Network: "LeNet", Index: 0, Result: row("LeNet", 0)},
		{Network: "ZFNet", Index: 0, Result: row("ZFNet", 0)},
		{Network: "ZFNet", Index: 1, Result: row("ZFNet", 1)},
	}
	if !slices.EqualFunc(partial, want, func(a, b api.JobCell) bool {
		return a.Network == b.Network && a.Index == b.Index && a.Result.Bits == b.Result.Bits
	}) {
		t.Fatalf("partial = %+v, want %+v", partial, want)
	}
	if rows, cells := c.MissingRows(); !slices.Equal(rows, []int{1}) || cells != 1 {
		t.Fatalf("missing rows %v / %d cells, want [1] / 1", rows, cells)
	}
	if got := c.Values("ZFNet"); len(got) != 2 || got[1].Bits != 1 {
		t.Fatalf("ZFNet values = %+v", got)
	}

	fresh := NewSweepCells([]string{"ZFNet", "LeNet", "ZFNet"}, 2)
	if n, err := fresh.Import(partial); err != nil || n != 5 {
		t.Fatalf("Import = %d, %v; want 5 slots", n, err)
	}
	if got := fresh.Partial(); len(got) != len(partial) {
		t.Fatalf("re-imported partial has %d cells, want %d", len(got), len(partial))
	}
	for _, bad := range [][]api.JobCell{
		append(slices.Clone(partial), partial[0]),               // a cell twice
		append(slices.Clone(partial), api.JobCell{Index: 0}),    // unknown network
		{{Network: "LeNet", Index: 2, Result: row("LeNet", 2)}}, // off the grid
	} {
		empty := NewSweepCells([]string{"ZFNet", "LeNet", "ZFNet"}, 2)
		if _, err := empty.Import(bad); !errors.Is(err, slots.ErrSnapshotMismatch) {
			t.Fatalf("Import(%+v): err = %v, want ErrSnapshotMismatch", bad, err)
		}
		if done, _ := empty.Progress(); done != 0 {
			t.Fatalf("refused import left %d slots", done)
		}
	}
}
