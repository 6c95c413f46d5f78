// Package cliutil holds the helpers the cmd/ tools share: parsing of
// comma-separated integer axes, name lists and MAC design names, and
// the -checkpoint/-resume lifecycle of a resumable run (RunResumable).
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pixel"
	"pixel/internal/arch"
)

// ParseInts parses a comma-separated list of positive integers — the
// form every axis flag (-lanes, -bits) takes. Every failure wraps
// pixel.ErrBadPrecision here, at the flag boundary, instead of passing
// through to fail deep inside the model (pinned by FuzzParseInts:
// error implies the sentinel, success implies all-positive values).
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%w: bad integer list %q: %v", pixel.ErrBadPrecision, s, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("%w: value %d in %q must be positive", pixel.ErrBadPrecision, v, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// MaxAxisPoints bounds the size of a parsed start:step:stop range: a
// tiny step against a huge stop ("0:1e-300:1") would otherwise expand
// to an astronomically long axis (or, before the bound existed, spin
// the expansion loop effectively forever).
const MaxAxisPoints = 1 << 20

// ParseFloatAxis parses a numeric axis flag in either of two forms: a
// comma-separated value list ("0,0.5,1") or a start:step:stop range
// ("0:0.5:5", both ends inclusive up to float rounding). Values must
// be non-negative and finite; a range needs a positive step, stop >=
// start, and at most MaxAxisPoints points. Every failure wraps
// pixel.ErrBadSpec at the flag boundary; FuzzParseFloatAxis pins that
// malformed axes error with the sentinel and never panic.
func ParseFloatAxis(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%w: bad range %q: want start:step:stop", pixel.ErrBadSpec, s)
		}
		var start, step, stop float64
		for i, dst := range []*float64{&start, &step, &stop} {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad range %q: %v", pixel.ErrBadSpec, s, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: bad range %q: non-finite value", pixel.ErrBadSpec, s)
			}
			*dst = v
		}
		if step <= 0 {
			return nil, fmt.Errorf("%w: bad range %q: step must be positive", pixel.ErrBadSpec, s)
		}
		if stop < start || start < 0 {
			return nil, fmt.Errorf("%w: bad range %q: want 0 <= start <= stop", pixel.ErrBadSpec, s)
		}
		// The epsilon admits a stop that float accumulation lands just
		// past (0:0.5:5 must include 5). Counting in index space rather
		// than walking values avoids the non-termination trap where
		// start+i*step rounds back to start.
		span := (stop - start) / step
		if !(span <= MaxAxisPoints-1) {
			return nil, fmt.Errorf("%w: range %q spans too many points (max %d)", pixel.ErrBadSpec, s, MaxAxisPoints)
		}
		out := make([]float64, 0, int(span)+1)
		for i := 0; float64(i) <= span+1e-9; i++ {
			out = append(out, start+float64(i)*step)
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad float list %q: %v", pixel.ErrBadSpec, s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%w: bad float list %q: value %v must be finite and non-negative", pixel.ErrBadSpec, s, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseNames splits a comma-separated name list, trimming whitespace
// and dropping empty entries.
func ParseNames(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if name := strings.TrimSpace(p); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// ParseArchDesign is pixel.ParseDesign for tools that drive the internal
// cost model directly and need the arch-side enum.
func ParseArchDesign(s string) (arch.Design, error) {
	d, err := pixel.ParseDesign(s)
	if err != nil {
		return 0, fmt.Errorf("unknown design %q (EE, OE, OO)", s)
	}
	switch d {
	case pixel.EE:
		return arch.EE, nil
	case pixel.OE:
		return arch.OE, nil
	default:
		return arch.OO, nil
	}
}
