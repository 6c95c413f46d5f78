// Package trace exports optical pulse trains as CSV waveforms and
// computes signal-quality summaries (peak/mean power, extinction
// ratio). It exists for debugging datapaths — dump a signal at any
// point of a circuit and inspect it slot by slot.
package trace

import (
	"fmt"
	"io"
	"math"

	"pixel/internal/optsim"
)

// WriteSignalCSV writes one row per slot: index, time [s], power [W],
// and the complex field components.
func WriteSignalCSV(w io.Writer, s *optsim.Signal) error {
	if s == nil {
		return fmt.Errorf("trace: nil signal")
	}
	if _, err := fmt.Fprintln(w, "slot,time_s,power_w,field_re,field_im"); err != nil {
		return err
	}
	for i := range s.Amps {
		a := s.Amps[i]
		_, err := fmt.Fprintf(w, "%d,%.6g,%.6g,%.6g,%.6g\n",
			i, float64(i)*s.Period+s.Skew, s.Power(i), real(a), imag(a))
		if err != nil {
			return err
		}
	}
	return nil
}

// Summary holds signal-quality statistics.
type Summary struct {
	Slots     int
	LitSlots  int
	PeakPower float64
	MeanPower float64
	// MinLitPower is the weakest non-dark slot (the worst "one").
	MinLitPower float64
	// ExtinctionDB is 10*log10(MinLitPower / MaxDarkPower); +Inf when
	// every dark slot is perfectly dark, 0 when nothing is lit.
	ExtinctionDB float64
}

// Summarize computes the statistics, classifying slots as lit when
// their power exceeds the threshold [W].
func Summarize(s *optsim.Signal, threshold float64) Summary {
	if threshold < 0 {
		threshold = 0
	}
	out := Summary{Slots: s.Slots(), MinLitPower: math.Inf(1)}
	maxDark := 0.0
	var total float64
	for i := 0; i < s.Slots(); i++ {
		p := s.Power(i)
		total += p
		if p > out.PeakPower {
			out.PeakPower = p
		}
		if p > threshold {
			out.LitSlots++
			if p < out.MinLitPower {
				out.MinLitPower = p
			}
		} else if p > maxDark {
			maxDark = p
		}
	}
	if out.Slots > 0 {
		out.MeanPower = total / float64(out.Slots)
	}
	switch {
	case out.LitSlots == 0:
		out.MinLitPower = 0
		out.ExtinctionDB = 0
	case maxDark == 0:
		out.ExtinctionDB = math.Inf(1)
	default:
		out.ExtinctionDB = 10 * math.Log10(out.MinLitPower/maxDark)
	}
	return out
}
