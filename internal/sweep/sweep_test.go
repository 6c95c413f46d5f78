package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/cnn"
)

func grid4x4() []Point {
	return Grid(arch.Designs(), []int{2, 4}, []int{4, 8})
}

func jobsFor(network string, points []Point) []Job {
	jobs := make([]Job, len(points))
	for i, p := range points {
		jobs[i] = Job{Network: network, Point: p}
	}
	return jobs
}

// TestRunMatchesSerial locks the engine's output to the serial loop it
// replaced: same order, bit-identical values, whatever the worker
// count.
func TestRunMatchesSerial(t *testing.T) {
	points := grid4x4()
	net := cnn.LeNet()
	want := make([]arch.NetworkCost, len(points))
	for i, p := range points {
		c, err := arch.CostNetwork(net, arch.MustConfig(p.Design, p.Lanes, p.Bits))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	for _, workers := range []int{1, 2, 8} {
		e := New(Options{Workers: workers})
		got, err := e.Run(context.Background(), jobsFor("LeNet", points), RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Network != want[i].Network ||
				got[i].Energy != want[i].Energy ||
				got[i].Latency != want[i].Latency {
				t.Errorf("workers=%d point %v: got %+v want %+v",
					workers, points[i], got[i].Energy, want[i].Energy)
			}
		}
	}
}

// TestRunMemoizes proves a warm identical run does zero CostNetwork
// calls, via the counter hook.
func TestRunMemoizes(t *testing.T) {
	e := New(Options{})
	jobs := jobsFor("LeNet", grid4x4())
	if _, err := e.Run(context.Background(), jobs, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	cold := e.CostCalls()
	if cold != int64(len(jobs)) {
		t.Fatalf("cold run cost calls = %d, want %d", cold, len(jobs))
	}
	if _, err := e.Run(context.Background(), jobs, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if warm := e.CostCalls() - cold; warm != 0 {
		t.Errorf("warm run performed %d CostNetwork calls, want 0", warm)
	}
}

// TestRunDedupsWithinOneRun: duplicate jobs in a single run are priced
// at most once each (modulo concurrent duplicates racing; with one
// worker the dedup is exact).
func TestRunDedupsWithinOneRun(t *testing.T) {
	e := New(Options{Workers: 1})
	jobs := append(jobsFor("LeNet", grid4x4()), jobsFor("LeNet", grid4x4())...)
	if _, err := e.Run(context.Background(), jobs, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if calls := e.CostCalls(); calls != int64(len(jobs)/2) {
		t.Errorf("cost calls = %d, want %d (duplicates should hit the cache)", calls, len(jobs)/2)
	}
}

func TestRunCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, jobsFor("LeNet", grid4x4()), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}

	// Cancelling mid-run (from the progress callback) must also
	// surface context.Canceled, not a partial result.
	e2 := New(Options{Workers: 1})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = e2.Run(ctx2, jobsFor("LeNet", grid4x4()), RunOptions{
		Progress: func(done, total int) {
			if done == 1 {
				cancel2()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}

func TestRunValidationErrors(t *testing.T) {
	e := New(Options{})
	if _, err := e.Run(context.Background(),
		[]Job{{Network: "NopeNet", Point: Point{Design: arch.EE, Lanes: 4, Bits: 8}}},
		RunOptions{}); err == nil {
		t.Error("unknown network should error")
	}
	if _, err := e.Run(context.Background(),
		[]Job{{Network: "LeNet", Point: Point{Design: arch.EE, Lanes: 0, Bits: 8}}},
		RunOptions{}); err == nil {
		t.Error("invalid lanes should error")
	}
	// Misses are not memoized: the same bad job fails again.
	if _, err := e.Network("NopeNet"); err == nil {
		t.Error("repeated miss should still error")
	}
}

// TestRejectedInputsAreNotMemoized: network names and points arrive
// from clients, so each rejected one must leave nothing behind, while
// valid ones stay memoized.
func TestRejectedInputsAreNotMemoized(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	good := Point{Design: arch.EE, Lanes: 4, Bits: 8}
	if _, err := e.Evaluate(ctx, Job{Network: "LeNet", Point: good}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Evaluate(ctx, Job{Network: fmt.Sprintf("NopeNet%d", i), Point: good}); err == nil {
			t.Fatalf("unknown network %d should error", i)
		}
		bad := Point{Design: arch.EE, Lanes: -1 - i, Bits: 8}
		if _, err := e.Evaluate(ctx, Job{Network: "LeNet", Point: bad}); err == nil {
			t.Fatalf("invalid point %v should error", bad)
		}
	}
	e.mu.Lock()
	nets, cfgs := len(e.nets), len(e.cfgs)
	e.mu.Unlock()
	if nets != 1 || cfgs != 1 {
		t.Errorf("memo holds %d networks and %d configs after 200 rejections, want 1 and 1", nets, cfgs)
	}
}

func TestProgressReporting(t *testing.T) {
	e := New(Options{})
	var mu sync.Mutex
	var calls []int
	jobs := jobsFor("LeNet", grid4x4())
	_, err := e.Run(context.Background(), jobs, RunOptions{
		Progress: func(done, total int) {
			mu.Lock()
			calls = append(calls, done)
			mu.Unlock()
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) {
		t.Fatalf("progress calls = %d, want %d", len(calls), len(jobs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress out of order: %v", calls)
		}
	}
}

func TestEvaluateNetworkRegistersCustomNetworks(t *testing.T) {
	e := New(Options{})
	custom := cnn.LeNet()
	custom.Name = "CustomNet"
	c, err := e.EvaluateNetwork(context.Background(), custom, Point{Design: arch.OO, Lanes: 4, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Network != "CustomNet" || c.Latency <= 0 {
		t.Errorf("custom network cost = %+v", c)
	}
	// Now resolvable by name through the engine.
	if _, err := e.Evaluate(context.Background(), Job{Network: "CustomNet", Point: Point{Design: arch.EE, Lanes: 2, Bits: 4}}); err != nil {
		t.Errorf("registered network should resolve: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	k := func(i int) Job { return Job{Network: "n", Point: Point{Lanes: i}} }
	c.put(k(1), arch.NetworkCost{Latency: 1})
	c.put(k(2), arch.NetworkCost{Latency: 2})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 should be cached")
	}
	c.put(k(3), arch.NetworkCost{Latency: 3}) // evicts k2 (k1 was refreshed)
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("k1 should survive (recency refreshed)")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Overwriting an existing key must not grow the cache.
	c.put(k(1), arch.NetworkCost{Latency: 10})
	if c.len() != 2 {
		t.Errorf("len after overwrite = %d, want 2", c.len())
	}
	if got, _ := c.get(k(1)); got.Latency != 10 {
		t.Errorf("overwrite lost: %v", got.Latency)
	}
}

func TestPointStringAndValidate(t *testing.T) {
	p := Point{Design: arch.OO, Lanes: 4, Bits: 16}
	if p.String() != "OO/L4/B16" {
		t.Errorf("String() = %q", p.String())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := (Point{Design: arch.Design(9), Lanes: 4, Bits: 16}).Validate(); err == nil {
		t.Error("unknown design should fail validation")
	}
	if err := (Point{Design: arch.EE, Lanes: 0, Bits: 16}).Validate(); err == nil {
		t.Error("zero lanes should fail validation")
	}
}

func TestGridOrder(t *testing.T) {
	points := Grid([]arch.Design{arch.EE, arch.OO}, []int{2, 4}, []int{8})
	want := []Point{
		{arch.EE, 2, 8}, {arch.EE, 4, 8},
		{arch.OO, 2, 8}, {arch.OO, 4, 8},
	}
	if len(points) != len(want) {
		t.Fatalf("grid = %v", points)
	}
	for i := range want {
		if points[i] != want[i] {
			t.Errorf("grid[%d] = %v, want %v", i, points[i], want[i])
		}
	}
}
