package httpx

import (
	"fmt"
	"slices"

	"pixel"
	"pixel/api"
	"pixel/internal/slots"
)

// SweepCells is a sweep job's landed grid cells, on a worker and on a
// coordinator alike: one slot per request network entry × grid row, so
// a network listed twice has two entries and counts twice. Its Partial
// is the one place the GET /v1/jobs/{id} partial of a sweep job — and a
// coordinator's sweep checkpoint — gets its shape and order. It is safe
// for concurrent use.
type SweepCells struct {
	networks []string // request entries, in request order
	sorted   []string // distinct networks, sorted: the partial's order
	points   int      // rows in the design-major grid
	store    *slots.Store[pixel.Result]
}

// NewSweepCells returns the empty cells of a sweep over networks (the
// request's list, repeats included) and a grid of points rows.
func NewSweepCells(networks []string, points int) *SweepCells {
	sorted := slices.Clone(networks)
	slices.Sort(sorted)
	return &SweepCells{
		networks: slices.Clone(networks),
		sorted:   slices.Compact(sorted),
		points:   points,
		store:    slots.New[pixel.Result](len(networks) * points),
	}
}

// Land stores r as the given row of network in every request entry
// naming it, the first write to each slot winning, and returns how many
// slots it filled: 0 for a cell off the grid or already landed.
func (c *SweepCells) Land(network string, row int, r pixel.Result) int {
	var buf [4]int
	n := 0
	for _, i := range c.appendSlots(buf[:0], network, row) {
		if ok, _ := c.store.Land(i, r); ok {
			n++
		}
	}
	return n
}

// appendSlots appends the slots of a network's grid row to dst, one per
// request entry naming it; none when the cell is off the grid.
func (c *SweepCells) appendSlots(dst []int, network string, row int) []int {
	if row < 0 || row >= c.points {
		return dst
	}
	for k, name := range c.networks {
		if name == network {
			dst = append(dst, k*c.points+row)
		}
	}
	return dst
}

// Progress returns the landed and total slot counts.
func (c *SweepCells) Progress() (done, total int) { return c.store.Progress() }

// Partial returns the cells landed so far sorted by network, then
// row, each network once.
func (c *SweepCells) Partial() []api.JobCell {
	idx, vals := c.store.Export()
	out := make([]api.JobCell, 0, len(idx))
	for _, n := range c.sorted {
		lo := slices.Index(c.networks, n) * c.points
		for j, _ := slices.BinarySearch(idx, lo); j < len(idx) && idx[j] < lo+c.points; j++ {
			out = append(out, api.JobCell{Network: n, Index: idx[j] - lo, Result: vals[j]})
		}
	}
	return out
}

// Values returns the rows of a network the request names, in grid
// order, as the store's own slots (see slots.Store.Values): read-only,
// and rows not landed read as zero Results.
func (c *SweepCells) Values(network string) []pixel.Result {
	lo := slices.Index(c.networks, network) * c.points
	return c.store.Values(lo, lo+c.points)
}

// MissingRows returns the grid rows with at least one request entry's
// cell outstanding, in order, plus the exact outstanding slot count.
func (c *SweepCells) MissingRows() (rows []int, cells int) {
	miss := c.store.Missing()
	for _, i := range miss {
		rows = append(rows, i%c.points)
	}
	slices.Sort(rows)
	return slices.Compact(rows), len(miss)
}

// Import replaces the landed cells with a Partial taken over the same
// request, each cell installed in every entry of its network, and
// returns the slot count installed. A cell off the grid or recorded
// twice is refused with slots.ErrSnapshotMismatch and nothing is
// installed.
func (c *SweepCells) Import(cells []api.JobCell) (int, error) {
	var idx []int
	var vals []pixel.Result
	for _, cell := range cells {
		n := len(idx)
		if idx = c.appendSlots(idx, cell.Network, cell.Index); len(idx) == n {
			return 0, fmt.Errorf("%w: sweep cell %s/%d is off the grid", slots.ErrSnapshotMismatch, cell.Network, cell.Index)
		}
		for range idx[n:] {
			vals = append(vals, cell.Result)
		}
	}
	if err := c.store.Import(c.store.Len(), idx, vals); err != nil {
		return 0, err
	}
	return len(idx), nil
}
