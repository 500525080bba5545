package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program:
// its name, when it started and ended (nanoseconds since the tracer
// started), and the enclosing span that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 at top level
}

// tracer keeps spans in memory while a traced run measures and writes
// them out once it ends. A disabled tracer records nothing; begin
// returns -1 and end ignores it, so untraced runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes the span and, when name is not empty, renames it — for
// calls whose outcome (accept or reject) is only known once they return.
func (t *tracer) endAs(id int, name string) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	if name != "" {
		t.spans[id].Name = name
	}
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations of every closed span with the name,
// in nanoseconds, sorted ascending.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, s.End-s.Start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// total sums the durations of every span with the name.
func (t *tracer) total(name string) int64 {
	var sum int64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantileUs returns the q-quantile of sorted nanosecond samples in
// microseconds (nearest rank).
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}
