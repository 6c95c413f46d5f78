package pixel

import (
	"context"
	"errors"
	"testing"
)

func TestEvaluatePower(t *testing.T) {
	p, err := PowerContext(context.Background(), "AlexNet", Point{OO, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.DynamicW <= 0 || p.StaticW <= 0 || p.LaserW <= 0 {
		t.Errorf("degenerate power summary %+v", p)
	}
	if p.TotalW != p.DynamicW+p.StaticW {
		t.Error("total = dynamic + static identity violated")
	}
	ee, err := PowerContext(context.Background(), "AlexNet", Point{EE, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if ee.LaserW != 0 {
		t.Error("EE has no laser")
	}
	if ee.TotalW <= p.TotalW {
		t.Error("EE should draw more total power at the headline point")
	}
	if _, err := PowerContext(context.Background(), "NopeNet", Point{EE, 4, 16}); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("unknown network: err = %v, want ErrUnknownNetwork", err)
	}
	if _, err := PowerContext(context.Background(), "LeNet", Point{EE, 0, 16}); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("invalid config: err = %v, want ErrBadPrecision", err)
	}
}

func TestMapToGrid(t *testing.T) {
	elec, err := MapContext(context.Background(), MapSpec{Network: "LeNet", Point: Point{OO, 4, 8}, Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	phot, err := MapContext(context.Background(), MapSpec{Network: "LeNet", Point: Point{OO, 4, 8}, Rows: 4, Cols: 4, PhotonicWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if elec.PipelinedS > elec.SequentialS {
		t.Error("pipelined makespan cannot exceed sequential")
	}
	if phot.SequentialS >= elec.SequentialS {
		t.Error("photonic weight streaming should shorten the makespan")
	}
	if elec.Utilization <= 0 || elec.Utilization > 1 {
		t.Errorf("utilization = %v", elec.Utilization)
	}
	if _, err := MapContext(context.Background(), MapSpec{Network: "LeNet", Point: Point{OO, 16, 8}, Rows: 4, Cols: 16}); !errors.Is(err, ErrBadGrid) {
		t.Error("over-budget wavelength plan should surface ErrBadGrid")
	}
	if _, err := MapContext(context.Background(), MapSpec{Network: "NopeNet", Point: Point{OO, 4, 8}, Rows: 4, Cols: 4}); !errors.Is(err, ErrUnknownNetwork) {
		t.Error("unknown network should surface ErrUnknownNetwork")
	}
}

func TestRunAblationsPublic(t *testing.T) {
	rows, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Name != "baseline" {
		t.Errorf("ablation rows wrong: %v", rows)
	}
	for _, r := range rows {
		if r.OOImprovement <= 0 {
			t.Errorf("%s: OO improvement should stay positive", r.Name)
		}
	}
}

// TestContextFormsHonourCancellation proves every canonical entry
// point returns the context's error without doing model work when ctx
// is already done.
func TestContextFormsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Point{Design: OO, Lanes: 4, Bits: 8}

	if _, err := EvaluateContext(ctx, "LeNet", p); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateContext err = %v, want context.Canceled", err)
	}
	if _, err := PowerContext(ctx, "LeNet", p); !errors.Is(err, context.Canceled) {
		t.Errorf("PowerContext err = %v, want context.Canceled", err)
	}
	if _, err := AreaContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("AreaContext err = %v, want context.Canceled", err)
	}
	if _, err := MapContext(ctx, MapSpec{Network: "LeNet", Point: p, Rows: 4, Cols: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("MapContext err = %v, want context.Canceled", err)
	}
	if _, err := InferContext(ctx, InferSpec{Network: "tiny", Images: [][]int64{make([]int64, 64)}}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferContext err = %v, want context.Canceled", err)
	}
	if _, err := SweepNetworks(ctx, []string{"LeNet"}, []Point{p}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SweepNetworks err = %v, want context.Canceled", err)
	}
	spec := RobustnessSpec{Network: "tiny", Design: OO, Sigmas: []float64{1}, Trials: 2, Seed: 1}
	if _, err := RobustnessContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Errorf("RobustnessContext err = %v, want context.Canceled", err)
	}
}
