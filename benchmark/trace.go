package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary the harness crosses. Parent is
// the index of the enclosing span in the trace (-1 for a root); UnitID ties
// the spans of one timed unit (one simulated run, one request) together.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	UnitID   int    `json:"unit_id"`
}

// tracer records spans in memory; they are written out when the run ends.
// A traced run drives one unit at a time, so the enclosing span of a new
// span is whichever span is still open — a stack under one mutex, correct
// across the goroutines an HTTP exchange hops through. A nil *tracer
// records nothing, which is how the untraced run is spelled.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	on    bool
	spans []span
	open  []int
	unit  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// enable switches recording on or off; a tracer starts switched off.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// nextUnit starts a new timed unit; spans begun from now on carry its id.
func (t *tracer) nextUnit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unit++
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, StartNS: int64(time.Since(t.epoch)), Parent: parent,
		Workload: t.workload, UnitID: t.unit,
	})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].EndNS = now
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == id {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// selfRow is one line of the folded self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes folds the trace by span name: a span's self time is its
// duration minus the part its children cover.
func (t *tracer) selfTimes() []selfRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-child[i]) / 1e6
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// printSelfTimes writes the folded table for a human.
func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  %-16s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// traceFile is the on-disk shape of a trace: the raw spans, the folded
// table and the counts taken at the same boundaries.
type traceFile struct {
	Workload  string             `json:"workload"`
	Spans     []span             `json:"spans"`
	SelfTimes []selfRow          `json:"self_times"`
	Counts    map[string]float64 `json:"counts"`
}

// write stores the trace at path.
func (t *tracer) write(path string, counts map[string]float64) error {
	rows := t.selfTimes()
	t.mu.Lock()
	out := traceFile{Workload: t.workload, Spans: t.spans, SelfTimes: rows, Counts: counts}
	data, err := json.Marshal(out)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
