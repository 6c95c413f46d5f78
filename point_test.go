package pixel

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestPointValidate(t *testing.T) {
	if err := (Point{OO, 4, 16}).Validate(); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := (Point{Design(7), 4, 16}).Validate(); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("unknown design: err = %v, want ErrUnknownDesign", err)
	}
	if err := (Point{EE, 0, 16}).Validate(); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("zero lanes: err = %v, want ErrBadPrecision", err)
	}
	if err := (Point{EE, 4, 65}).Validate(); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("oversized bits: err = %v, want ErrBadPrecision", err)
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{OO, 4, 16}).String(); s != "OO/L4/B16" {
		t.Errorf("String() = %q", s)
	}
	if s := Design(9).String(); !strings.Contains(s, "9") {
		t.Errorf("out-of-enum design String() = %q", s)
	}
}

func TestEvaluateContext(t *testing.T) {
	r, err := EvaluateContext(context.Background(), "LeNet", Point{OE, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.EDP <= 0 {
		t.Errorf("degenerate result %+v", r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The network and point stay validated eagerly; only the pricing is
	// subject to the context, and a cached hit may still succeed — so
	// probe with a point the cache has never seen.
	if _, err := EvaluateContext(ctx, "LeNet", Point{OE, 64, 61}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled evaluate: err = %v, want context.Canceled", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := EvaluateContext(ctx, "NopeNet", Point{EE, 4, 8}); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("EvaluateContext unknown network: %v", err)
	}
	if _, err := EvaluateContext(ctx, "LeNet", Point{Design(42), 4, 8}); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("EvaluateContext unknown design: %v", err)
	}
	if _, err := EvaluateContext(ctx, "LeNet", Point{EE, 0, 8}); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("EvaluateContext bad lanes: %v", err)
	}
	if _, err := AreaContext(ctx, Point{Design(42), 4, 8}); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("AreaContext unknown design: %v", err)
	}
	if _, err := PowerContext(ctx, "LeNet", Point{EE, 4, 99}); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("PowerContext bad bits: %v", err)
	}
	if _, err := MapContext(ctx, MapSpec{Network: "LeNet", Point: Point{OO, 4, 8}, Rows: 0, Cols: 4}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("MapContext zero rows: %v", err)
	}
	if _, err := MapContext(ctx, MapSpec{Network: "LeNet", Point: Point{OO, 16, 8}, Rows: 4, Cols: 16}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("MapContext over-budget plan: %v", err)
	}
	if _, err := NewMAC(Design(9), 8, 1); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("NewMAC unknown design: %v", err)
	}
	if _, err := NewMAC(EE, 17, 1); !errors.Is(err, ErrBadPrecision) {
		t.Errorf("NewMAC bad bits: %v", err)
	}
	if _, err := ReadResultsJSON(strings.NewReader(`[{"design":"XX"}]`)); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("ReadResultsJSON bad design: %v", err)
	}
}

func TestGridEnumeration(t *testing.T) {
	points := Grid(Designs(), []int{2, 4}, []int{8, 16})
	if len(points) != 12 {
		t.Fatalf("grid size = %d, want 12", len(points))
	}
	if points[0] != (Point{EE, 2, 8}) || points[11] != (Point{OO, 4, 16}) {
		t.Errorf("grid order wrong: first %v last %v", points[0], points[11])
	}
}
