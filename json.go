package pixel

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteResultsJSON serializes sweep/evaluation results as indented
// JSON sweep rows, without per-layer data (see Result.PerLayer) — the
// machine-readable companion to the CSV tables, for downstream
// plotting.
func WriteResultsJSON(w io.Writer, results []Result) error {
	if len(results) == 0 {
		return fmt.Errorf("pixel: no results to write")
	}
	rows := make([]Result, len(results))
	for i, r := range results {
		r.PerLayer = nil
		rows[i] = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// ReadResultsJSON parses results written by WriteResultsJSON (the
// design names round-trip back to Design values; an unknown one
// surfaces ErrUnknownDesign).
func ReadResultsJSON(r io.Reader) ([]Result, error) {
	var out []Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("pixel: decode results: %w", err)
	}
	return out, nil
}
