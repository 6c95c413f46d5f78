package fleet

import (
	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

// sweepShard is one dispatchable grid chunk: a valid cross-product
// /v1/sweep sub-request, its consistent-hash routing key (stable across
// repeats, so the same chunk lands on the same worker's result LRU),
// and the global grid row of each of its local rows.
type sweepShard struct {
	Req  api.SweepRequest
	Key  string
	Rows []int // local row → global grid row
}

// newSweepShard builds the shard pricing req's networks at the given
// designs and axes, landing on the global rows.
func newSweepShard(req api.SweepRequest, designs []pixel.Design, lanes, bits, rows []int) sweepShard {
	// Sub-requests always carry explicit design names — a worker must
	// price exactly the chunk, never its own "all designs" default.
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.String()
	}
	sub := api.SweepRequest{Networks: req.Networks, Designs: names, Lanes: lanes, Bits: bits}
	return sweepShard{Req: sub, Key: "sweep|" + httpx.SweepKey(sub, designs), Rows: rows}
}

// planSweep validates req's limits exactly as a worker would and
// splits the canonical grid (design-major, then lanes, then bits) into
// at most max(target, 1) cross-product-expressible shards. The split
// follows the grid's axis order: the target spreads over the designs
// (whole-design chunks while it is at most the design count), each
// design's share over its lanes, and a share above the lane count over
// each lane's bits — so every shard stays a contiguous block and its
// sub-request stays a pure cross product. points is the full grid size.
func planSweep(req api.SweepRequest, target int) (shards []sweepShard, points int, err error) {
	designs, points, err := httpx.SweepDesigns(req)
	if err != nil {
		return nil, 0, err
	}
	D, L, B := len(designs), len(req.Lanes), len(req.Bits)
	add := func(designs []pixel.Design, lanes, bits []int, start, count int) {
		rows := make([]int, count)
		for j := range rows {
			rows[j] = start + j
		}
		shards = append(shards, newSweepShard(req, designs, lanes, bits, rows))
	}

	if target <= D {
		for _, r := range chunkRanges(D, target) {
			add(designs[r[0]:r[1]], req.Lanes, req.Bits, r[0]*L*B, (r[1]-r[0])*L*B)
		}
		return shards, points, nil
	}
	for di, dr := range chunkRanges(target, D) {
		share := dr[1] - dr[0] // this design's part of the target, >= 1
		if share <= L {
			for _, r := range chunkRanges(L, share) {
				add(designs[di:di+1], req.Lanes[r[0]:r[1]], req.Bits, di*L*B+r[0]*B, (r[1]-r[0])*B)
			}
			continue
		}
		for li, lr := range chunkRanges(share, L) {
			for _, r := range chunkRanges(B, lr[1]-lr[0]) {
				add(designs[di:di+1], req.Lanes[li:li+1], req.Bits[r[0]:r[1]], (di*L+li)*B+r[0], r[1]-r[0])
			}
		}
	}
	return shards, points, nil
}

// robustShard is one dispatchable σ chunk: a valid /v1/robustness
// sub-request, its routing key, and the global σ index of each of its
// local σ positions. σ is the one shardable axis that preserves
// bit-identity: trial seeds deliberately exclude σ (see
// internal/montecarlo), so each worker draws exactly the perturbations
// the full-axis run would for its σ values, and the baseline is
// σ-independent.
type robustShard struct {
	Req api.RobustnessRequest
	Key string
	Idx []int // local σ position → global σ index
}

// chunkRanges splits [0, n) into min(max(k, 1), n) contiguous
// half-open ranges whose sizes differ by at most one; an empty [0, 0)
// has none.
func chunkRanges(n, k int) [][2]int {
	k = min(max(k, 1), n)
	out := make([][2]int, 0, k)
	lo := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
