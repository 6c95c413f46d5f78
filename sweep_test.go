package pixel

import (
	"context"
	"errors"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/cnn"
)

func TestSweepGridComplete(t *testing.T) {
	byNet, err := SweepNetworks(context.Background(), []string{"LeNet"}, Grid(Designs(), []int{2, 4}, []int{4, 8}), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := byNet["LeNet"]
	if len(res) != 3*2*2 {
		t.Fatalf("sweep points = %d, want 12", len(res))
	}
	// Deterministic order: design-major.
	if res[0].Design != EE || res[len(res)-1].Design != OO {
		t.Error("sweep order wrong")
	}
	for _, r := range res {
		if r.EDP <= 0 {
			t.Errorf("point %+v has non-positive EDP", r)
		}
	}
}

// TestSweepMatchesSerialGolden locks the engine-backed sweep to the
// seed's serial triple loop: same deterministic (design, lanes, bits)
// order, bit-identical values.
func TestSweepMatchesSerialGolden(t *testing.T) {
	designs := Designs()
	lanesAxis := []int{2, 4, 8}
	bitsAxis := []int{4, 8, 16}

	// The seed implementation, verbatim: resolve, configure and price
	// each point from scratch, serially, through internal/arch.
	net, err := cnn.ByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, d := range designs {
		ad, err := d.arch()
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range lanesAxis {
			for _, bits := range bitsAxis {
				cfg, err := arch.NewConfig(ad, lanes, bits)
				if err != nil {
					t.Fatal(err)
				}
				c, err := arch.CostNetwork(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, sweepRow("AlexNet", Point{d, lanes, bits}, &c))
			}
		}
	}

	for _, workers := range []int{1, 4} {
		byNet, err := SweepNetworks(context.Background(), []string{"AlexNet"},
			Grid(designs, lanesAxis, bitsAxis), &SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := byNet["AlexNet"]
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Design != w.Design || g.Lanes != w.Lanes || g.Bits != w.Bits {
				t.Fatalf("workers=%d order drift at %d: got %v/%d/%d want %v/%d/%d",
					workers, i, g.Design, g.Lanes, g.Bits, w.Design, w.Lanes, w.Bits)
			}
			if g.EnergyJ != w.EnergyJ || g.LatencyS != w.LatencyS || g.EDP != w.EDP {
				t.Errorf("workers=%d point %d: values drifted from serial", workers, i)
			}
			if g.Breakdown != w.Breakdown {
				t.Errorf("workers=%d point %d: breakdown drifted", workers, i)
			}
			if g.PerLayer != nil {
				t.Errorf("workers=%d point %d: sweep row carries per-layer data", workers, i)
			}
		}
	}
}

// TestSweepSecondRunIsCached proves an identical repeat sweep performs
// zero CostNetwork calls, via the engine's counter hook.
func TestSweepSecondRunIsCached(t *testing.T) {
	points := Grid(Designs(), []int{2, 4}, []int{4, 8})
	if _, err := SweepNetworks(context.Background(), []string{"GoogLeNet"}, points, nil); err != nil {
		t.Fatal(err)
	}
	before := defaultEngine.CostCalls()
	if _, err := SweepNetworks(context.Background(), []string{"GoogLeNet"}, points, nil); err != nil {
		t.Fatal(err)
	}
	if calls := defaultEngine.CostCalls() - before; calls != 0 {
		t.Errorf("warm sweep performed %d CostNetwork calls, want 0", calls)
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepNetworks(ctx, []string{"LeNet"}, Grid(Designs(), []int{2, 4}, []int{4, 8}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelling mid-sweep from the progress callback returns promptly
	// with the context's error too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = SweepNetworks(ctx2, []string{"LeNet"}, Grid(Designs(), []int{2, 4, 8}, []int{1, 2, 3}),
		&SweepOptions{Workers: 1, Progress: func(done, total int) {
			if done == 1 {
				cancel2()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
}

func TestSweepNetworksFanOut(t *testing.T) {
	points := Grid(Designs(), []int{4}, []int{8, 16})
	byNet, err := SweepNetworks(context.Background(),
		[]string{"LeNet", "AlexNet"}, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(byNet) != 2 {
		t.Fatalf("networks = %d, want 2", len(byNet))
	}
	for _, name := range []string{"LeNet", "AlexNet"} {
		results := byNet[name]
		if len(results) != len(points) {
			t.Fatalf("%s: %d results, want %d", name, len(results), len(points))
		}
		// Each network's slice must match its single-network sweep.
		one, err := SweepNetworks(context.Background(), []string{name}, points, nil)
		if err != nil {
			t.Fatal(err)
		}
		single := one[name]
		for i := range single {
			if results[i].EDP != single[i].EDP || results[i].Network != name {
				t.Errorf("%s point %d drifted from single-network sweep", name, i)
			}
		}
	}
	if _, err := SweepNetworks(context.Background(), []string{"NopeNet"}, points, nil); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("unknown network: err = %v, want ErrUnknownNetwork", err)
	}
	if _, err := SweepNetworks(context.Background(), nil, points, nil); err == nil {
		t.Error("empty network list should error")
	}
}

func TestSweepProgress(t *testing.T) {
	var last, total int
	points := Grid(Designs(), []int{2}, []int{4, 8})
	_, err := SweepNetworks(context.Background(), []string{"LeNet"}, points,
		&SweepOptions{Progress: func(d, tot int) { last, total = d, tot }})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(points) || total != len(points) {
		t.Errorf("progress finished at %d/%d, want %d/%d", last, total, len(points), len(points))
	}
}

func TestSweepValidation(t *testing.T) {
	sweep := func(network string, designs []Design, lanesAxis, bitsAxis []int) error {
		_, err := SweepNetworks(context.Background(), []string{network}, Grid(designs, lanesAxis, bitsAxis), nil)
		return err
	}
	if err := sweep("LeNet", nil, []int{4}, []int{8}); err == nil {
		t.Error("empty designs should error")
	}
	if err := sweep("NopeNet", Designs(), []int{4}, []int{8}); !errors.Is(err, ErrUnknownNetwork) {
		t.Error("unknown network should surface ErrUnknownNetwork")
	}
	if err := sweep("LeNet", Designs(), []int{0}, []int{8}); err == nil {
		t.Error("invalid lanes should error")
	}
	if err := sweep("LeNet", []Design{Design(9)}, []int{4}, []int{8}); !errors.Is(err, ErrUnknownDesign) {
		t.Error("unknown design should surface ErrUnknownDesign")
	}
}

func TestBestEDPAndRank(t *testing.T) {
	byNet, err := SweepNetworks(context.Background(), []string{"AlexNet"}, Grid(Designs(), []int{4}, []int{8, 16}), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := byNet["AlexNet"]
	best, err := BestEDP(res)
	if err != nil {
		t.Fatal(err)
	}
	if best.Design != OO {
		t.Errorf("best design = %v, want OO", best.Design)
	}
	ranked := RankByEDP(res)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].EDP < ranked[i-1].EDP {
			t.Fatal("rank not sorted")
		}
	}
	if ranked[0].EDP != best.EDP {
		t.Error("rank head must equal BestEDP")
	}
	// RankByEDP must not mutate its input.
	if res[0].Design != EE {
		t.Error("input slice mutated")
	}
	if _, err := BestEDP(nil); err == nil {
		t.Error("empty results should error")
	}
}
