package fleet

import (
	"fmt"
	"slices"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

// sweepShard is one worker-sized block of a sweep: a valid /v1/sweep
// sub-request covering the contiguous rows [Start, Start+Count) of the
// full request's canonical design-major point grid.
type sweepShard struct {
	Req   api.SweepRequest
	Key   string // consistent-hash routing key, stable across repeats
	Start int
	Count int
}

// planSweep validates req exactly as a worker's /v1/sweep would and
// splits the canonical grid (design-major, then lanes, then bits) into
// at most target cross-product-expressible shards. The split
// hierarchy follows the grid's axis order — whole-design chunks first,
// then per-design lane chunks, then per-(design, lane) bit chunks —
// so every shard stays a contiguous block and its sub-request stays a
// pure cross product. points is the full grid size.
func planSweep(req api.SweepRequest, target int) (shards []sweepShard, points int, err error) {
	designs, points, err := httpx.SweepDesigns(req)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.String()
	}
	D, L, B := len(designs), len(req.Lanes), len(req.Bits)
	if target < 1 {
		target = 1
	}

	// Shard sub-requests always carry explicit design names — a worker
	// must price exactly the chunk, never its own "all designs" default.
	add := func(dNames []string, lanes, bits []int, start, count int) {
		sub := api.SweepRequest{Networks: req.Networks, Designs: dNames, Lanes: lanes, Bits: bits}
		shards = append(shards, sweepShard{
			Req:   sub,
			Key:   sweepKey(sub),
			Start: start,
			Count: count,
		})
	}

	switch {
	case target <= 1:
		add(names, req.Lanes, req.Bits, 0, points)
	case target <= D:
		for _, r := range chunkRanges(D, target) {
			add(names[r[0]:r[1]], req.Lanes, req.Bits, r[0]*L*B, (r[1]-r[0])*L*B)
		}
	case target <= D*L:
		perDesign := (target + D - 1) / D
		for di := 0; di < D; di++ {
			for _, r := range chunkRanges(L, perDesign) {
				add(names[di:di+1], req.Lanes[r[0]:r[1]], req.Bits, di*L*B+r[0]*B, (r[1]-r[0])*B)
			}
		}
	default:
		perLane := (target + D*L - 1) / (D * L)
		for di := 0; di < D; di++ {
			for li := 0; li < L; li++ {
				for _, r := range chunkRanges(B, perLane) {
					add(names[di:di+1], req.Lanes[li:li+1], req.Bits[r[0]:r[1]], (di*L+li)*B+r[0], r[1]-r[0])
				}
			}
		}
	}
	return shards, points, nil
}

// mergeSweep assembles shard responses into the single-node response:
// every shard's per-network rows land verbatim in their grid slots.
// Worker results decode into the same float64s a local run would
// produce and Go re-encodes float64 round-trips byte-exactly, so the
// merged payload is byte-identical to one worker pricing the whole
// grid.
func mergeSweep(networks []string, points int, shards []sweepShard, resps []api.SweepResponse) (api.SweepResponse, error) {
	out := api.SweepResponse{Points: points, Results: make(map[string][]api.Result, len(networks))}
	for _, n := range networks {
		out.Results[n] = make([]api.Result, points)
	}
	for i, sh := range shards {
		if resps[i].Points != sh.Count {
			return api.SweepResponse{}, fmt.Errorf("fleet: shard %d returned %d points, want %d", i, resps[i].Points, sh.Count)
		}
		for _, n := range networks {
			rows := resps[i].Results[n]
			if len(rows) != sh.Count {
				return api.SweepResponse{}, fmt.Errorf("fleet: shard %d returned %d rows for %q, want %d", i, len(rows), n, sh.Count)
			}
			copy(out.Results[n][sh.Start:sh.Start+sh.Count], rows)
		}
	}
	return out, nil
}

// robustShard is one worker-sized σ-axis chunk of a robustness run:
// a valid /v1/robustness sub-request whose Sigmas are the contiguous
// axis slice starting at index Lo of the full request.
type robustShard struct {
	Req api.RobustnessRequest
	Key string
	Lo  int
}

// planRobustness validates req as a worker would (maxTrials mirrors
// the worker-side -max-trials cap) and chunks the σ axis into at most
// target shards. σ is the one shardable axis that preserves
// bit-identity: trial seeds deliberately exclude σ (see
// internal/montecarlo), so each worker draws exactly the perturbations
// the full-axis run would for its σ values, and the baseline is
// σ-independent.
func planRobustness(req api.RobustnessRequest, maxTrials, target int) ([]robustShard, error) {
	if _, err := httpx.RobustnessSpec(req, maxTrials); err != nil {
		return nil, err
	}
	n := len(req.Sigmas)
	if n == 0 || target <= 1 {
		// Degenerate axes pass through whole so the worker's own
		// validation (and response shape) applies verbatim.
		return []robustShard{{Req: req, Key: robustKey(req)}}, nil
	}
	k := target
	if k > n {
		k = n
	}
	shards := make([]robustShard, 0, k)
	for _, r := range chunkRanges(n, k) {
		sub := req
		sub.Sigmas = req.Sigmas[r[0]:r[1]]
		shards = append(shards, robustShard{Req: sub, Key: robustKey(sub), Lo: r[0]})
	}
	return shards, nil
}

// sweepKey is the consistent-hash routing key of a sweep sub-request,
// stable across repeats so the same chunk lands on the same worker's
// result LRU.
func sweepKey(sub api.SweepRequest) string {
	return fmt.Sprintf("sweep|%q|%v|%v|%v", sub.Networks, sub.Designs, sub.Lanes, sub.Bits)
}

// robustKey is the routing key of a robustness sub-request.
func robustKey(sub api.RobustnessRequest) string {
	k := fmt.Sprintf("robustness|%s|%s|%v|%d|%d|%v", sub.Network, sub.Design, sub.Sigmas, sub.Trials, sub.Seed, sub.ErrorBudget)
	if p := sub.Protection; p != nil {
		k += fmt.Sprintf("|%s:%d:%d:%d", p.Scheme, p.Copies, p.Retries, p.RecalEvery)
	}
	return k
}

// mergeRobustness concatenates shard σ points in axis order and
// reconciles the shared report fields. Baseline is σ-independent, so
// every shard must agree — a mismatch means the fleet is mixing
// incompatible worker builds and the merge refuses rather than guess.
// The protection overheads are pure functions of the max retry factor,
// so the shard achieving the global max also carries the overheads the
// single-node report would.
func mergeRobustness(shards []robustShard, resps []api.RobustnessResponse) (api.RobustnessResponse, error) {
	out := resps[0]
	if len(shards) == 1 {
		return out, nil
	}
	total := 0
	for _, r := range resps {
		total += len(r.Points)
	}
	points := make([]pixel.YieldPoint, 0, total)
	for _, r := range resps {
		points = append(points, r.Points...)
	}
	out.Points = points
	for i := 1; i < len(resps); i++ {
		if !slices.Equal(resps[i].Baseline, resps[0].Baseline) {
			return api.RobustnessResponse{}, fmt.Errorf("fleet: shard %d baseline disagrees with shard 0", i)
		}
	}
	if resps[0].Protection != nil {
		pr := *resps[0].Protection
		pr.Points = nil
		for i, r := range resps {
			if r.Protection == nil {
				return api.RobustnessResponse{}, fmt.Errorf("fleet: shard %d is missing the protection curve", i)
			}
			pr.Points = append(pr.Points, r.Protection.Points...)
			// Strictly-greater keeps the earliest shard on ties, matching
			// the single-node run where one computation takes the max.
			if r.Protection.MaxRetryFactor > pr.MaxRetryFactor {
				pr.MaxRetryFactor = r.Protection.MaxRetryFactor
				pr.EnergyOverhead = r.Protection.EnergyOverhead
				pr.LatencyOverhead = r.Protection.LatencyOverhead
				pr.AreaOverhead = r.Protection.AreaOverhead
			}
		}
		out.Protection = &pr
	}
	return out, nil
}

// chunkRanges splits [0, n) into min(k, n) contiguous half-open
// ranges whose sizes differ by at most one.
func chunkRanges(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
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
