package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the export/import surface of the observability layer:
// Metrics and TraceDump serialize to JSON and parse back losslessly —
// the round trip is schema-tested so downstream tooling can rely on
// the field names.

// WriteJSON writes the metrics snapshot as indented JSON.
func (m Metrics) WriteJSON(w io.Writer) error {
	return writeJSON(w, m)
}

// ParseMetrics reads a Metrics snapshot written by WriteJSON.
func ParseMetrics(r io.Reader) (Metrics, error) {
	var m Metrics
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return Metrics{}, fmt.Errorf("obs: parse metrics: %w", err)
	}
	return m, nil
}

// TraceDump is the exportable form of the event trace.
type TraceDump struct {
	Events   []Event `json:"events"`
	Capacity int     `json:"capacity"`
	Emitted  uint64  `json:"emitted"`
	Dropped  uint64  `json:"dropped"`
}

// WriteJSON writes the trace as indented JSON.
func (d TraceDump) WriteJSON(w io.Writer) error {
	return writeJSON(w, d)
}

// ParseTrace reads a TraceDump written by WriteJSON.
func ParseTrace(r io.Reader) (TraceDump, error) {
	var d TraceDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return TraceDump{}, fmt.Errorf("obs: parse trace: %w", err)
	}
	return d, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
