package pixel

import "errors"

// Sentinel errors of the public API. Every failure returned by this
// package that stems from one of these causes wraps the corresponding
// sentinel with context, so callers can branch with errors.Is instead
// of matching message strings:
//
//	if _, err := pixel.EvaluateContext(ctx, name, p); errors.Is(err, pixel.ErrUnknownNetwork) {
//	    // prompt for a valid network
//	}
var (
	// ErrUnknownNetwork: the network name is not in the zoo (see
	// Networks).
	ErrUnknownNetwork = errors.New("pixel: unknown network")
	// ErrUnknownDesign: the Design value is none of EE, OE, OO.
	ErrUnknownDesign = errors.New("pixel: unknown design")
	// ErrBadPrecision: a lanes or bits/lane value is outside the
	// model's supported range.
	ErrBadPrecision = errors.New("pixel: bad precision")
	// ErrBadGrid: a tile-grid shape is unusable (non-positive extents
	// or an over-budget wavelength plan).
	ErrBadGrid = errors.New("pixel: bad grid")
	// ErrBadSpec: a request spec (e.g. a Monte-Carlo robustness sweep)
	// is malformed — non-positive trials, an empty σ axis or one with a
	// negative or non-finite scale, an error budget outside [0, 1] (NaN
	// included), or a non-physical variation model.
	ErrBadSpec = errors.New("pixel: bad spec")
)
