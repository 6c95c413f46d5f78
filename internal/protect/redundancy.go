package protect

import (
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
)

// maxCopies bounds N-modular redundancy: beyond a handful of copies
// the spare-wavelength budget is gone and the vote tree dominates.
const maxCopies = 9

// Redundancy is lane-level N-modular redundancy: every dot product is
// executed Copies times — each copy on its own spare-wavelength lane,
// hence with independent fault draws — and the digitised sums are
// majority-voted. A tie (no strict majority) triggers one sequential
// arbiter re-execution, counted as a retry.
type Redundancy struct {
	// Copies is the number of redundant executions per call; 3 is
	// classic TMR, 2 (DMR) detects but must arbitrate every mismatch.
	Copies int
}

// TMR returns classic triple-modular redundancy.
func TMR() Redundancy { return Redundancy{Copies: 3} }

// Name returns "tmr", "dmr" or "nmr".
func (r Redundancy) Name() string {
	switch r.Copies {
	case 2:
		return "dmr"
	case 3:
		return "tmr"
	default:
		return "nmr"
	}
}

// Validate bounds the copy count to [2, maxCopies].
func (r Redundancy) Validate() error {
	if r.Copies < 2 || r.Copies > maxCopies {
		return fmt.Errorf("protect: redundancy copies %d out of [2, %d]", r.Copies, maxCopies)
	}
	return nil
}

// Derate returns the zero derate: redundancy is purely a datapath
// scheme and leaves the physical flip rates alone.
func (r Redundancy) Derate() Derate { return Derate{} }

// Overhead prices the copies. On the optical designs the copies ride
// spare wavelengths in parallel — optical energy scales by Copies,
// the electrical side adds a small vote tree, latency is untouched
// until a tie forces an arbiter run. On EE there are no spare
// wavelengths: the copies run back to back (time redundancy), so the
// execution factor carries the cost instead.
func (r Redundancy) Overhead(d arch.Design) arch.ProtectionOverhead {
	c := float64(r.Copies)
	o := arch.ProtectionOverhead{
		Scheme:           r.Name(),
		OpticalFactor:    c,
		ElectricalFactor: 1.05, // the majority-vote tree
		ExecutionFactor:  1,
		LaserFactor:      1,
		TuningFactor:     1,
	}
	if d == arch.EE {
		o.OpticalFactor = 1
		o.ExecutionFactor = c
	}
	return o
}

// Wrap returns the voting engine.
func (r Redundancy) Wrap(e bitserial.Stripes) (bitserial.Stripes, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	walk, _ := e.(bitserial.Walker)
	return &redundant{base: e, walk: walk, copies: r.Copies}, nil
}

// redundant is the voting wrapper. It consumes the wrapped engine's
// fault streams sequentially, so each copy sees an independent draw —
// exactly what physically distinct wavelength lanes give.
type redundant struct {
	base   bitserial.Stripes
	walk   bitserial.Walker // base, when it walks
	copies int
	c      Counters
}

var _ bitserial.Walker = (*redundant)(nil)
var _ Metered = (*redundant)(nil)

func (r *redundant) Counters() Counters { return r.c }

// DotProduct runs the wrapped dot product Copies times and returns the
// strict-majority value (see vote).
func (r *redundant) DotProduct(neurons, synapses []uint64) (uint64, bitserial.Stats, error) {
	return r.vote(&call{neurons: neurons, synapses: synapses})
}

// DotFromClean implements bitserial.Walker: the vote of DotProduct,
// each copy walked from the clean value by the wrapped engine's
// DotFromClean, so a call whose copies all see no flip costs one value.
func (r *redundant) DotFromClean(neurons func() []uint64, synapses []uint64, clean uint64) (uint64, error) {
	v, _, err := r.vote(&call{window: neurons, synapses: synapses, clean: clean})
	return v, err
}

// vote runs c Copies times and returns the strict-majority value. If
// no value reaches a strict majority, one arbiter re-execution breaks
// the tie and its result ships. Stats sum over every execution — the
// honest total work.
func (r *redundant) vote(c *call) (uint64, bitserial.Stats, error) {
	r.c.Calls++
	var st bitserial.Stats
	var vals [maxCopies]uint64
	for i := 0; i < r.copies; i++ {
		v, s, err := c.exec(r.base, r.walk)
		if err != nil {
			return 0, bitserial.Stats{}, err
		}
		addStats(&st, s)
		r.c.Executions++
		vals[i] = v
	}
	best, bestCount := vals[0], 0
	for i := 0; i < r.copies; i++ {
		count := 0
		for j := 0; j < r.copies; j++ {
			if vals[j] == vals[i] {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = vals[i], count
		}
	}
	if 2*bestCount > r.copies {
		if bestCount < r.copies {
			r.c.Disagreements++
		}
		return best, st, nil
	}
	// No strict majority: arbitrate with one more execution.
	r.c.Disagreements++
	r.c.Retries++
	r.c.Executions++
	av, as, err := c.exec(r.base, r.walk)
	if err != nil {
		return 0, bitserial.Stats{}, err
	}
	addStats(&st, as)
	return av, st, nil
}
