package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/resultjson"
)

// TestChunkRanges: contiguous cover of [0, n) with sizes differing by
// at most one, for every (n, k) in a small exhaustive box; an empty
// [0, 0) splits into no ranges at all.
func TestChunkRanges(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for k := -1; k <= n+3; k++ {
			rs := chunkRanges(n, k)
			if want := min(max(k, 1), n); len(rs) != want {
				t.Fatalf("chunkRanges(%d, %d) has %d ranges, want %d", n, k, len(rs), want)
			}
			lo, minSz, maxSz := 0, n+1, 0
			for _, r := range rs {
				if r[0] != lo || r[1] <= r[0] {
					t.Fatalf("chunkRanges(%d, %d) = %v: not a contiguous cover", n, k, rs)
				}
				if sz := r[1] - r[0]; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
				lo = r[1]
			}
			if lo != n {
				t.Fatalf("chunkRanges(%d, %d) = %v: covers [0, %d), want [0, %d)", n, k, rs, lo, n)
			}
			if maxSz > 0 && maxSz-minSz > 1 {
				t.Fatalf("chunkRanges(%d, %d) = %v: sizes differ by more than one", n, k, rs)
			}
		}
	}
}

// TestPlanSweepCoversGrid: at every shard target, the full-grid plan is
// contiguous blocks whose sub-request cross products reproduce the full
// canonical grid in order, and a salvage plan over scattered holes
// covers exactly the missing rows with cross-product sub-requests.
func TestPlanSweepCoversGrid(t *testing.T) {
	req := api.SweepRequest{
		Networks: []string{"LeNet", "AlexNet"},
		Lanes:    []int{2, 4, 8, 16},
		Bits:     []int{2, 4, 6, 8},
	}
	designs := pixel.Designs()
	full := pixel.Grid(designs, req.Lanes, req.Bits)
	c := &Coordinator{opts: Options{}.withDefaults()}
	task, err := c.newSweepTask(req)
	if err != nil {
		t.Fatal(err)
	}
	// checkShards asserts every shard's cross product lands exactly on
	// its global rows and returns the rows covered, in plan order.
	checkShards := func(target int, shards []sweepShard) []int {
		t.Helper()
		var covered []int
		for _, sh := range shards {
			sub := make([]pixel.Design, 0, len(sh.Req.Designs))
			for _, name := range sh.Req.Designs {
				d, err := pixel.ParseDesign(name)
				if err != nil {
					t.Fatalf("target %d: %v", target, err)
				}
				sub = append(sub, d)
			}
			grid := pixel.Grid(sub, sh.Req.Lanes, sh.Req.Bits)
			if len(grid) != len(sh.Rows) {
				t.Fatalf("target %d: shard grid has %d points, %d rows", target, len(grid), len(sh.Rows))
			}
			for j, p := range grid {
				if want := full[sh.Rows[j]]; p.String() != want.String() {
					t.Fatalf("target %d: shard point %d = %s, full grid has %s", target, sh.Rows[j], p, want)
				}
			}
			covered = append(covered, sh.Rows...)
		}
		return covered
	}

	all, cells := task.cells.MissingRows()
	if len(all) != len(full) || cells != len(req.Networks)*len(full) {
		t.Fatalf("fresh task misses %d rows / %d cells, want %d / %d", len(all), cells, len(full), len(req.Networks)*len(full))
	}
	for _, target := range []int{0, 1, 2, 3, 5, 7, 12, 30, 48, 100} {
		shards := task.planMissing(all, target)
		for i, row := range checkShards(target, shards) {
			if row != i {
				t.Fatalf("target %d: full-grid plan covers row %d at position %d; want a contiguous in-order cover", target, row, i)
			}
		}
		if n := len(checkShards(target, shards)); n != len(full) {
			t.Fatalf("target %d: shards cover %d points, want %d", target, n, len(full))
		}
		if len(shards) > max(target, 1) {
			t.Fatalf("target %d produced %d shards", target, len(shards))
		}
	}

	// Salvage plans: one shard per (design, distinct bit subset). The
	// first holes fall on six (design, lane) groups with six bit
	// subsets; the second on four lanes of design 0 at bit index 1 and
	// two lanes of design 1 at bit index 2, which merge into two lane
	// blocks.
	for _, tc := range []struct {
		holes  []int
		shards int
	}{
		{[]int{0, 1, 3, 6, 7, 17, 18, 31, 40, 47}, 6},
		{[]int{1, 5, 9, 13, 18, 22}, 2},
	} {
		shards := task.planMissing(tc.holes, 4)
		covered := checkShards(4, shards)
		slices.Sort(covered)
		if !slices.Equal(covered, tc.holes) {
			t.Fatalf("salvage plan covers rows %v, want exactly %v", covered, tc.holes)
		}
		if len(shards) != tc.shards {
			t.Fatalf("holes %v planned %d shards, want %d", tc.holes, len(shards), tc.shards)
		}
	}
}

// TestPlanSweepValidation: the planner rejects exactly what a worker's
// /v1/sweep rejects, with the same messages, before any fan-out.
func TestPlanSweepValidation(t *testing.T) {
	cases := []struct {
		name string
		req  api.SweepRequest
		want string
	}{
		{"no networks", api.SweepRequest{Lanes: []int{2}, Bits: []int{4}}, "networks must be non-empty"},
		{"no axes", api.SweepRequest{Networks: []string{"lenet"}}, "lanes and bits axes must be non-empty"},
		{"bad design", api.SweepRequest{Networks: []string{"lenet"}, Designs: []string{"ZZ"}, Lanes: []int{2}, Bits: []int{4}}, "unknown design"},
	}
	for _, tc := range cases {
		_, _, err := planSweep(tc.req, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestPlanRobustness: a full-axis plan is contiguous σ chunks in axis
// order, a salvage plan keeps each σ on its global index, and the
// constructor rejects the trial cap and an empty σ axis as a worker
// does.
func TestPlanRobustness(t *testing.T) {
	req := api.RobustnessRequest{
		Network: "lenet", Design: "OO",
		Sigmas: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07},
		Trials: 8,
	}
	c := &Coordinator{opts: Options{}.withDefaults()}
	task, err := c.newRobustnessTask(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{1, 2, 3, 7, 10} {
		shards := task.planMissing(task.points.Missing(), target)
		wantShards := target
		if wantShards > len(req.Sigmas) {
			wantShards = len(req.Sigmas)
		}
		if len(shards) != wantShards {
			t.Fatalf("target %d: %d shards, want %d", target, len(shards), wantShards)
		}
		lo := 0
		for _, sh := range shards {
			if len(sh.Idx) != len(sh.Req.Sigmas) {
				t.Fatalf("target %d: shard maps %d indices for %d sigmas", target, len(sh.Idx), len(sh.Req.Sigmas))
			}
			for j, s := range sh.Req.Sigmas {
				if sh.Idx[j] != lo+j || s != req.Sigmas[lo+j] {
					t.Fatalf("target %d: shard sigma %d = %v at index %d, want %v at %d", target, j, s, sh.Idx[j], req.Sigmas[lo+j], lo+j)
				}
			}
			lo += len(sh.Req.Sigmas)
		}
		if lo != len(req.Sigmas) {
			t.Fatalf("target %d: shards cover %d sigmas, want %d", target, lo, len(req.Sigmas))
		}
	}
	for _, sh := range task.planMissing([]int{1, 4, 6}, 2) {
		for j, gi := range sh.Idx {
			if sh.Req.Sigmas[j] != req.Sigmas[gi] {
				t.Fatalf("salvage shard sigma %d = %v, want global sigma %d = %v", j, sh.Req.Sigmas[j], gi, req.Sigmas[gi])
			}
		}
	}

	if _, err := c.newRobustnessTask(api.RobustnessRequest{Network: "lenet", Design: "OO", Sigmas: []float64{0.01}, Trials: 9999}); err == nil || !strings.Contains(err.Error(), "trial limit") {
		t.Errorf("trials over cap: err = %v", err)
	}
	if _, err := c.newRobustnessTask(api.RobustnessRequest{Network: "lenet", Design: "OO", Trials: 4}); !errors.Is(err, pixel.ErrBadSpec) {
		t.Errorf("empty sigma axis: err = %v, want the worker's bad spec", err)
	}
}

// TestMergeRobustnessProtection: folding complete shards and finalizing
// takes the global max retry factor together with the overheads of a
// shard whose own max reached it (the first such shard folded), and
// refuses baseline disagreement.
func TestMergeRobustnessProtection(t *testing.T) {
	c := &Coordinator{opts: Options{}.withDefaults()}
	req := api.RobustnessRequest{Network: "lenet", Design: "OO", Sigmas: []float64{0.01, 0.02, 0.03}, Trials: 4,
		Protection: &api.ProtectionSpec{Scheme: "parity"}}
	mk := func(retry, overhead float64) api.RobustnessResponse {
		return api.RobustnessResponse{
			Baseline: []int64{42},
			Points:   []pixel.YieldPoint{{}},
			Protection: &pixel.ProtectionReport{
				Points:          []pixel.ProtectedPoint{{RetryFactor: retry}},
				MaxRetryFactor:  retry,
				EnergyOverhead:  overhead,
				LatencyOverhead: overhead,
				AreaOverhead:    overhead,
			},
		}
	}
	fold := func(resps ...api.RobustnessResponse) (*fleetRobustnessTask, error) {
		task, err := c.newRobustnessTask(req)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range task.planMissing(task.points.Missing(), len(resps)) {
			if err := task.foldResponse(sh, resps[i], func(string, any) {}); err != nil {
				return nil, err
			}
		}
		return task, nil
	}

	task, err := fold(mk(1.5, 10), mk(2.5, 20), mk(2.5, 30))
	if err != nil {
		t.Fatal(err)
	}
	out, err := task.finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Protection.MaxRetryFactor != 2.5 || out.Protection.EnergyOverhead != 20 {
		t.Fatalf("merged protection = %+v, want retry 2.5 with shard-1 overheads", out.Protection)
	}
	if len(out.Points) != 3 || len(out.Protection.Points) != 3 {
		t.Fatalf("merged %d points / %d protected, want 3 / 3", len(out.Points), len(out.Protection.Points))
	}
	for i, want := range []float64{1.5, 2.5, 2.5} {
		if got := out.Protection.Points[i].RetryFactor; got != want {
			t.Fatalf("protected point %d retry = %v, want %v", i, got, want)
		}
	}

	bad := []api.RobustnessResponse{mk(1, 1), mk(1, 1), mk(1, 1)}
	bad[2].Baseline = []int64{7}
	if _, err := fold(bad...); err == nil || !strings.Contains(err.Error(), "baseline disagrees") {
		t.Fatalf("baseline mismatch: err = %v", err)
	}
}

// TestRingStability: every key lists every worker exactly once, and
// dropping the last worker only remaps keys that worker owned.
func TestRingStability(t *testing.T) {
	names := []string{"w0:1", "w1:1", "w2:1"}
	r3 := newRing(names)
	r2 := newRing(names[:2])
	keys := make([]string, 0, 500)
	for i := 0; i < 500; i++ {
		keys = append(keys, strings.Repeat("k", 1+i%7)+string(rune('a'+i%26))+strconv.Itoa(i))
	}
	moved := 0
	for _, k := range keys {
		seq := r3.sequence(k)
		if len(seq) != 3 {
			t.Fatalf("sequence(%q) = %v, want all 3 workers", k, seq)
		}
		seen := map[int]bool{}
		for _, wi := range seq {
			if seen[wi] {
				t.Fatalf("sequence(%q) = %v repeats a worker", k, seq)
			}
			seen[wi] = true
		}
		if r3.owner(k) == 2 {
			moved++
			continue
		}
		if r2.owner(k) != r3.owner(k) {
			t.Fatalf("key %q moved from %d to %d though worker 2 owned it in neither", k, r3.owner(k), r2.owner(k))
		}
	}
	if moved == 0 || moved == len(keys) {
		t.Fatalf("worker 2 owned %d/%d keys; want a proper share", moved, len(keys))
	}
}

// TestShardKeysAreWorkerKeys: a whole-request shard routes on the
// worker's own coalescing key behind the route prefix, and the key
// text is pinned, since it places every shard on the ring.
func TestShardKeysAreWorkerKeys(t *testing.T) {
	c := &Coordinator{opts: Options{}.withDefaults()}
	sweep := api.SweepRequest{Networks: []string{"LeNet"}, Lanes: []int{2, 4}, Bits: []int{8}}
	shards, _, err := planSweep(sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := "sweep|" + httpx.SweepKey(sweep, pixel.Designs()); shards[0].Key != want {
		t.Errorf("sweep shard key = %q, want %q", shards[0].Key, want)
	}
	if want := `sweep|["LeNet"]|[EE OE OO]|[2 4]|[8]`; shards[0].Key != want {
		t.Errorf("sweep shard key = %q, want %q", shards[0].Key, want)
	}

	rob := api.RobustnessRequest{Network: "LeNet", Design: "OO", Sigmas: []float64{0.01, 0.02}, Trials: 4, Seed: 7,
		Protection: &api.ProtectionSpec{Scheme: "parity"}}
	task, err := c.newRobustnessTask(rob)
	if err != nil {
		t.Fatal(err)
	}
	key := task.planMissing(task.points.Missing(), 1)[0].Key
	if want := "robustness|" + httpx.RobustnessKey(rob); key != want {
		t.Errorf("robustness shard key = %q, want %q", key, want)
	}
	if want := "robustness|LeNet|OO|[0.01 0.02]|4|7|0|parity:0:0:0"; key != want {
		t.Errorf("robustness shard key = %q, want %q", key, want)
	}

	// Evaluate routes on the worker's coalescing key, unprefixed; map on
	// its own key behind "map|". Ring placement depends on this text.
	p, err := httpx.EvaluatePoint(api.EvaluateRequest{Network: "LeNet", Design: "OO", Lanes: 4, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if key, want := httpx.EvaluateKey("LeNet", p), "LeNet|OO/L4/B8"; key != want {
		t.Errorf("evaluate key = %q, want %q", key, want)
	}
	spec, err := httpx.MapSpec(api.MapRequest{Network: "LeNet", Design: "OE", Lanes: 4, Bits: 8, Rows: 2, Cols: 3, PhotonicWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if key, want := "map|"+httpx.MapKey(spec), "map|LeNet|OE/L4/B8|2|3|true"; key != want {
		t.Errorf("map key = %q, want %q", key, want)
	}
}

// FuzzShardPlan: for any grid shape, network count, shard target and
// set of missing rows or σ points, both planners cover every missing
// unit exactly once, every sweep shard's cross product lands on its
// global rows, a full-grid sweep plan covers the grid in order in at
// most max(target, 1) shards, a salvage sweep plan has at most one
// shard per (design, distinct bit subset), and a robustness plan
// covers its σ points in axis order. The seed corpus in testdata/fuzz holds the
// shapes planSweep once overshot (3 designs x 2 lanes at target 4,
// 1 x 3 at 4, 2 x 3 at 3) and an empty missing set.
func FuzzShardPlan(f *testing.F) {
	c := &Coordinator{opts: Options{}.withDefaults()}
	nets := pixel.Networks()
	f.Fuzz(func(t *testing.T, nd, nl, nb, nn, target, nsig, trials uint8, holes uint64) {
		seq := func(n uint8, mod int) []int {
			out := make([]int, 1+int(n)%mod)
			for i := range out {
				out[i] = i + 1
			}
			return out
		}
		var designs []string
		for _, d := range pixel.Designs()[:1+int(nd)%3] {
			designs = append(designs, d.String())
		}
		req := api.SweepRequest{Networks: nets[:1+int(nn)%2], Designs: designs, Lanes: seq(nl, 8), Bits: seq(nb, 8)}
		task, err := c.newSweepTask(req)
		if err != nil {
			t.Fatal(err)
		}
		k := int(target) % 17
		// pick keeps each of 0..n-1 with probability 1/2, seeded by holes.
		pick := func(n int) []int {
			r := rand.New(rand.NewPCG(holes, uint64(n)))
			var out []int
			for i := 0; i < n; i++ {
				if r.IntN(2) == 1 {
					out = append(out, i)
				}
			}
			return out
		}

		full := pixel.Grid(task.designs, req.Lanes, req.Bits)
		all, _ := task.cells.MissingRows()
		for _, missing := range [][]int{all, pick(task.points)} {
			shards := task.planMissing(missing, k)
			var covered []int
			for _, sh := range shards {
				var sub []pixel.Design
				for _, name := range sh.Req.Designs {
					d, err := pixel.ParseDesign(name)
					if err != nil {
						t.Fatal(err)
					}
					sub = append(sub, d)
				}
				grid := pixel.Grid(sub, sh.Req.Lanes, sh.Req.Bits)
				if len(grid) != len(sh.Rows) {
					t.Fatalf("target %d: shard grid has %d points for %d rows", k, len(grid), len(sh.Rows))
				}
				for j, p := range grid {
					if want := full[sh.Rows[j]]; p != want {
						t.Fatalf("target %d: shard point %s lands on row %d, which is %s", k, p, sh.Rows[j], want)
					}
				}
				covered = append(covered, sh.Rows...)
			}
			if len(missing) == task.points {
				if !slices.Equal(covered, missing) {
					t.Fatalf("target %d: full-grid plan covers rows %v, want %v in order", k, covered, missing)
				}
				if len(shards) > max(k, 1) {
					t.Fatalf("target %d: full %d x %d x %d grid planned %d shards", k, len(designs), len(req.Lanes), len(req.Bits), len(shards))
				}
				continue
			}
			// A salvage plan covers each missing row once, with one shard
			// per (design, distinct bit subset).
			slices.Sort(covered)
			if !slices.Equal(covered, missing) {
				t.Fatalf("target %d: salvage plan covers rows %v, want %v", k, covered, missing)
			}
			seen := make(map[string]bool)
			for _, sh := range shards {
				key := fmt.Sprint(sh.Req.Designs, sh.Req.Bits)
				if seen[key] {
					t.Fatalf("target %d: salvage plan has two shards for design and bits %s", k, key)
				}
				seen[key] = true
			}
		}

		sigmas := make([]float64, 1+int(nsig)%12)
		for i := range sigmas {
			sigmas[i] = 0.01 * float64(i+1)
		}
		allSigmas := make([]int, len(sigmas))
		for i := range allSigmas {
			allSigmas[i] = i
		}
		rt := &fleetRobustnessTask{c: c, req: api.RobustnessRequest{Network: "lenet", Design: "OO", Sigmas: sigmas, Trials: 1 + int(trials)%8}}
		for _, missing := range [][]int{allSigmas, pick(len(sigmas))} {
			shards := rt.planMissing(missing, k)
			var covered []int
			for _, sh := range shards {
				if len(sh.Idx) == 0 || len(sh.Idx) != len(sh.Req.Sigmas) {
					t.Fatalf("target %d: shard maps %d indices for %d sigmas", k, len(sh.Idx), len(sh.Req.Sigmas))
				}
				for j, gi := range sh.Idx {
					if sh.Req.Sigmas[j] != sigmas[gi] {
						t.Fatalf("target %d: shard sigma %v at global index %d, want %v", k, sh.Req.Sigmas[j], gi, sigmas[gi])
					}
				}
				covered = append(covered, sh.Idx...)
			}
			if !slices.Equal(covered, missing) {
				t.Fatalf("target %d: robustness plan covers %v, want %v", k, covered, missing)
			}
			if want := min(max(k, 1), len(missing)); len(shards) != want {
				t.Fatalf("target %d: %d missing sigmas planned %d shards, want %d", k, len(missing), len(shards), want)
			}
		}
	})
}

// FuzzSweepFold: a sweep folded from shard bodies writes the
// single-node body byte for byte. It draws the grid, the request's
// networks (a network may be listed twice), the shard target and the
// holes: the first round's shards land in a random order, some dying
// after a partial harvest of random cells, and a salvage round plans
// and folds whatever is still missing. Shard bodies and partials cross
// the wire as a worker writes them and the coordinator reads them, and
// progress events must count up to the total.
func FuzzSweepFold(f *testing.F) {
	c := &Coordinator{opts: Options{shardFloor: 1}.withDefaults()}
	eng := pixel.NewEngine(pixel.EngineOptions{Workers: 1})
	nets := pixel.Networks()[:3]
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint8(4), uint64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Add(uint8(2), uint8(7), uint8(7), uint8(2), uint8(16), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, nd, nl, nb, nn, target uint8, holes uint64) {
		r := rand.New(rand.NewPCG(holes, uint64(target)))
		axis := func(n uint8) []int {
			out := make([]int, 1+int(n)%8)
			for i := range out {
				out[i] = i + 1
			}
			return out
		}
		var designs []string
		for _, d := range pixel.Designs()[:1+int(nd)%3] {
			designs = append(designs, d.String())
		}
		networks := make([]string, 1+int(nn)%3)
		for i := range networks {
			networks[i] = nets[r.IntN(len(nets))]
		}
		req := api.SweepRequest{Networks: networks, Designs: designs, Lanes: axis(nl), Bits: axis(nb)}
		task, err := c.newSweepTask(req)
		if err != nil {
			t.Fatal(err)
		}
		_, want := workerSweep(t, eng, req)

		last := 0
		emit := func(typ string, data any) {
			p, ok := data.(api.JobProgress)
			if typ != api.JobEventProgress || !ok || p.Done <= last || p.Done > p.Total {
				t.Fatalf("event %s %+v after %d done", typ, data, last)
			}
			last = p.Done
		}
		k := int(target) % 17
		all, _ := task.cells.MissingRows()
		first := task.plan(all, k)
		r.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
		for _, sh := range first {
			resp, _ := workerSweep(t, eng, sh.Req)
			if r.IntN(3) > 0 {
				if err := task.foldResponse(sh, resp, emit); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// The shard dies; its worker's partial held some of its cells.
			var partial []api.JobCell
			for n, rows := range resp.Results {
				for j, row := range rows {
					if r.IntN(2) == 0 {
						partial = append(partial, api.JobCell{Network: n, Index: j, Result: row})
					}
				}
			}
			buf, err := json.Marshal(partial)
			if err != nil {
				t.Fatal(err)
			}
			var cells []api.JobCell
			if err := json.Unmarshal(buf, &cells); err != nil {
				t.Fatal(err)
			}
			task.fold(sh, cells, emit)
		}
		if rows, _ := task.cells.MissingRows(); len(rows) > 0 {
			for _, sh := range task.plan(rows, k) {
				resp, _ := workerSweep(t, eng, sh.Req)
				if err := task.foldResponse(sh, resp, emit); err != nil {
					t.Fatal(err)
				}
			}
		}
		if done, total := task.Progress(); done != total || last != total {
			t.Fatalf("folded %d of %d cells, last event at %d", done, total, last)
		}
		out, err := task.finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := resultjson.AppendSweep(nil, out.Points, out.Results)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("folded body differs from one worker's:\n%s\nwant\n%s", got, want)
		}
	})
}

// workerSweep prices req on eng as a worker's /v1/sweep does and
// returns its body and that body as the coordinator's client parses it.
func workerSweep(t *testing.T, eng *pixel.Engine, req api.SweepRequest) (api.SweepResponse, []byte) {
	t.Helper()
	designs, points, err := httpx.SweepDesigns(req)
	if err != nil {
		t.Fatal(err)
	}
	byNet, err := eng.SweepNetworks(context.Background(), req.Networks, pixel.Grid(designs, req.Lanes, req.Bits), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := resultjson.AppendSweep(nil, points, byNet)
	if !ok {
		t.Fatalf("sweep %+v did not encode", req)
	}
	points, results, ok := resultjson.ParseSweep(body)
	if !ok {
		t.Fatalf("sweep body left the parser:\n%s", body)
	}
	return api.SweepResponse{Points: points, Results: results}, body
}

// planCoordinator is a coordinator over n named, never-contacted
// workers with no prober: enough to plan against.
func planCoordinator(n int) *Coordinator {
	names := make([]string, n)
	for i := range names {
		names[i] = "w" + strconv.Itoa(i) + ":1"
	}
	c := &Coordinator{opts: Options{Workers: names}.withDefaults()}
	for _, name := range names {
		c.members = append(c.members, c.newWorker(name))
	}
	c.ring = newRing(names)
	return c
}

// TestPlanSweepFloor: a sweep plans one shard per minShardUnits of
// rows × networks, at least one and at most shardTarget. A 48-cell
// grid plans one shard, the same grid over two networks three, and a
// 576-point grid shardTarget shards that reach every worker.
func TestPlanSweepFloor(t *testing.T) {
	c := planCoordinator(3)
	lanes := []int{2, 4, 8, 16}
	bits := []int{2, 4, 6, 8}
	many := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	cases := []struct {
		name string
		req  api.SweepRequest
		want int
	}{
		{"48 cells", api.SweepRequest{Networks: []string{"LeNet"}, Lanes: lanes, Bits: bits}, 1},
		{"48 cells x 2 networks", api.SweepRequest{Networks: []string{"LeNet", "AlexNet"}, Lanes: lanes, Bits: bits}, 96 / minShardUnits},
		{"576 points", api.SweepRequest{Networks: []string{"LeNet"}, Lanes: many, Bits: append(many, 13, 14, 15, 16)}, c.shardTarget()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			task, err := c.newSweepTask(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := task.cells.MissingRows()
			shards := task.plan(rows, c.shardTarget())
			if len(shards) != tc.want {
				t.Fatalf("%d-point grid planned %d shards, want %d", task.points, len(shards), tc.want)
			}
			if tc.want < c.shardTarget() {
				return
			}
			owners := map[int]bool{}
			for _, sh := range shards {
				owners[c.ring.owner(sh.Key)] = true
			}
			if len(owners) != len(c.members) {
				t.Errorf("%d-point grid's shards reach %d of %d workers", task.points, len(owners), len(c.members))
			}
		})
	}
}
