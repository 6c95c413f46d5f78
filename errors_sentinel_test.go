package pixel

import (
	"context"
	"errors"
	"testing"
)

// TestSentinelWrappingAtFacade is the contract pixeld's HTTP status
// mapping relies on: every public evaluation entry point must wrap the
// matching sentinel for every bad-input class, so errors.Is works no
// matter which route a failure took through the engine.
func TestSentinelWrappingAtFacade(t *testing.T) {
	// Entry points are labelled by operation; the labels predate the
	// ...Context forms and stay put as stable subtest names.
	entryPoints := []struct {
		name string
		// call evaluates the given network (ignored for Area) at p.
		call        func(network string, p Point) error
		usesNetwork bool
	}{
		{"Evaluate", func(n string, p Point) error {
			_, err := EvaluateContext(context.Background(), n, p)
			return err
		}, true},
		{"EvaluatePower", func(n string, p Point) error {
			_, err := PowerContext(context.Background(), n, p)
			return err
		}, true},
		{"Area", func(n string, p Point) error {
			_, err := AreaContext(context.Background(), p)
			return err
		}, false},
		{"MapToGrid", func(n string, p Point) error {
			_, err := MapContext(context.Background(), MapSpec{Network: n, Point: p, Rows: 4, Cols: 4})
			return err
		}, true},
		{"SweepContext", func(n string, p Point) error {
			_, err := SweepNetworks(context.Background(), []string{n}, []Point{p}, nil)
			return err
		}, true},
	}

	badInputs := []struct {
		name    string
		network string
		p       Point
		want    error
		// needsNetwork marks classes only reachable through a network
		// argument; they are skipped for network-less entry points.
		needsNetwork bool
	}{
		{"unknown network", "NopeNet", Point{Design: OO, Lanes: 4, Bits: 16}, ErrUnknownNetwork, true},
		{"unknown design", "AlexNet", Point{Design: Design(99), Lanes: 4, Bits: 16}, ErrUnknownDesign, false},
		{"non-positive lanes", "AlexNet", Point{Design: OO, Lanes: 0, Bits: 16}, ErrBadPrecision, false},
		{"out-of-range bits", "AlexNet", Point{Design: OO, Lanes: 4, Bits: 1000}, ErrBadPrecision, false},
	}

	for _, ep := range entryPoints {
		for _, bad := range badInputs {
			if bad.needsNetwork && !ep.usesNetwork {
				continue
			}
			t.Run(ep.name+"/"+bad.name, func(t *testing.T) {
				err := ep.call(bad.network, bad.p)
				if !errors.Is(err, bad.want) {
					t.Errorf("%s(%s, %s) err = %v, want errors.Is(%v)",
						ep.name, bad.network, bad.p, err, bad.want)
				}
			})
		}
	}

	// ErrBadGrid is mapping-specific: an over-budget wavelength plan.
	t.Run("MapToGrid/bad grid", func(t *testing.T) {
		if _, err := MapContext(context.Background(), MapSpec{Network: "LeNet", Point: Point{OO, 16, 8}, Rows: 4, Cols: 16}); !errors.Is(err, ErrBadGrid) {
			t.Errorf("err = %v, want errors.Is(ErrBadGrid)", err)
		}
		if _, err := MapContext(context.Background(), MapSpec{Network: "LeNet", Point: Point{OO, 4, 8}, Rows: 0, Cols: 4}); !errors.Is(err, ErrBadGrid) {
			t.Errorf("non-positive rows: err = %v, want errors.Is(ErrBadGrid)", err)
		}
	})

	// Validate, the piecewise precheck Points offer, agrees with the
	// entry points on the same classes.
	t.Run("Validate", func(t *testing.T) {
		if err := (Point{Design: Design(99), Lanes: 4, Bits: 16}).Validate(); !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("err = %v, want ErrUnknownDesign", err)
		}
		if err := (Point{Design: OO, Lanes: 0, Bits: 16}).Validate(); !errors.Is(err, ErrBadPrecision) {
			t.Errorf("err = %v, want ErrBadPrecision", err)
		}
	})
}
