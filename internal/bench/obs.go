package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"hpmvm/internal/obs"
)

// This file is the bench-level entry point to the observability layer:
// an instrumented sweep that runs each selected workload once with the
// full monitoring + co-allocation stack and the observer attached, and
// JSON export of the per-workload metrics and event traces
// (cmd/experiments -metrics-json / -trace). The sweep is additive to
// the regular experiments — it never changes their output, which stays
// pinned byte-identical to the results/ fixtures.

// ObsRecord is one workload's observability capture.
type ObsRecord struct {
	Workload string        `json:"workload"`
	Cycles   uint64        `json:"cycles"`
	Metrics  obs.Metrics   `json:"metrics"`
	Trace    obs.TraceDump `json:"trace"`
}

// ObsSweep runs every selected workload once with monitoring,
// co-allocation and the observer attached (the full paper stack) and
// returns the per-workload captures in workload order. Runs fan out on
// the experiment engine like any other experiment.
func ObsSweep(opt ExpOptions) ([]ObsRecord, error) {
	opt, err := opt.prepare()
	if err != nil {
		return nil, err
	}
	handles := make([]*RunHandle, len(opt.names))
	for i, name := range opt.names {
		handles[i] = opt.eng.RunAsync(opt.builders[i], RunConfig{
			Coalloc: true,
			Seed:    opt.Seed,
			Observe: true,
		}, name+"/obs")
	}
	if err := opt.eng.Wait(); err != nil {
		return nil, err
	}
	recs := make([]ObsRecord, len(opt.names))
	for i, name := range opt.names {
		h := handles[i]
		recs[i] = ObsRecord{
			Workload: name,
			Cycles:   h.Result().Cycles,
			Metrics:  *h.Result().Obs,
			Trace:    h.Sys().Obs.TraceDump(),
		}
	}
	return recs, nil
}

// WriteObsMetricsJSON writes the sweep's counter/phase snapshots
// (without the event traces) as an indented JSON array.
func WriteObsMetricsJSON(w io.Writer, recs []ObsRecord) error {
	type rec struct {
		Workload string      `json:"workload"`
		Cycles   uint64      `json:"cycles"`
		Metrics  obs.Metrics `json:"metrics"`
	}
	out := make([]rec, len(recs))
	for i, r := range recs {
		out[i] = rec{Workload: r.Workload, Cycles: r.Cycles, Metrics: r.Metrics}
	}
	return writeIndentedJSON(w, out)
}

// WriteObsTraceJSON writes the sweep's event traces as an indented
// JSON array of {workload, trace} objects.
func WriteObsTraceJSON(w io.Writer, recs []ObsRecord) error {
	type rec struct {
		Workload string        `json:"workload"`
		Trace    obs.TraceDump `json:"trace"`
	}
	out := make([]rec, len(recs))
	for i, r := range recs {
		out[i] = rec{Workload: r.Workload, Trace: r.Trace}
	}
	return writeIndentedJSON(w, out)
}

func writeIndentedJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: obs export: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
