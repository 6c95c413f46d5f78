package pixel

import (
	"context"
	"fmt"
	"sort"

	"pixel/internal/cnn"
	sweepeng "pixel/internal/sweep"
)

// defaultEngine backs every evaluation and sweep entry point of the
// package-level API: a GOMAXPROCS worker pool with memoized network
// resolution, configuration construction and a bounded LRU of whole
// evaluation results. Repeating a sweep (or overlapping one — the
// EE-normalized figures share reference points) does no pricing work
// for points already in cache. Independent engines come from NewEngine.
var defaultEngine = NewEngine(EngineOptions{})

// SweepOptions tunes one sweep call. The zero value (or a nil
// *SweepOptions) means: one worker per CPU, no progress reporting.
type SweepOptions struct {
	// Workers overrides the worker-pool size; <= 0 keeps GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each point completes
	// with the completed and total counts. Calls are serialized; keep
	// the callback fast.
	Progress func(done, total int)
	// Cell, when non-nil, is called once per (network, point) grid
	// cell as soon as it is priced, with the point's index on the
	// request grid and the cell's Result. Calls are serialized with
	// each other and with Progress but arrive out of grid order in
	// general; cells restored from a checkpoint are announced up
	// front, in grid order. Keep the callback fast.
	Cell func(network string, index int, r Result)
}

func (o *SweepOptions) runOptions() sweepeng.RunOptions {
	if o == nil {
		return sweepeng.RunOptions{}
	}
	return sweepeng.RunOptions{Workers: o.Workers, Progress: o.Progress}
}

// SweepNetworks fans one grid of design points out across several
// networks in a single worker-pool run. The result map holds one
// point-ordered slice per network; the total grid is evaluated
// concurrently with shared-work memoization across networks.
func SweepNetworks(ctx context.Context, networks []string, points []Point, opts *SweepOptions) (map[string][]Result, error) {
	return defaultEngine.SweepNetworks(ctx, networks, points, opts)
}

// resolveNetwork looks a network up through the default engine's memo,
// wrapping misses with ErrUnknownNetwork.
func resolveNetwork(name string) (cnn.Network, error) {
	return defaultEngine.resolveNetwork(name)
}

// BestEDP returns the sweep result with the lowest energy-delay
// product.
func BestEDP(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("pixel: no results")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.EDP < best.EDP {
			best = r
		}
	}
	return best, nil
}

// RankByEDP returns the results sorted by ascending EDP (a copy; the
// input is untouched).
func RankByEDP(results []Result) []Result {
	out := append([]Result(nil), results...)
	sort.Slice(out, func(i, j int) bool { return out[i].EDP < out[j].EDP })
	return out
}
