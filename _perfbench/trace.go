package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are kept in
// memory and written out when the run ends.
type span struct {
	Name string `json:"name"`
	// Run groups the spans of one set-up or pass ("setup-1", "pass-7").
	Run string `json:"run"`
	// Start and End are nanoseconds since process start.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, or -1.
	Parent int `json:"parent"`
	// AllocBytes is the heap allocated inside an experiment.build span.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer records spans from a single goroutine; open holds the indices of
// the spans not yet ended, innermost last.
type tracer struct {
	on         bool
	spans      []span
	open       []int
	cpuProfile []byte
}

func (t *tracer) begin(name, run string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Run: run, Start: int64(time.Since(processStart)), Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(processStart))
	t.open = t.open[:len(t.open)-1]
}

// durationsMS groups span durations by name, in milliseconds, over the
// spans whose run id starts with prefix.
func (t *tracer) durationsMS(prefix string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Run, prefix) {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// buildMB lists the heap megabytes each experiment.build span allocated.
func (t *tracer) buildMB() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == "experiment.build" {
			out = append(out, float64(s.AllocBytes)/1e6)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func (t *tracer) writeSpans(path string) error {
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

// median is the middle of xs, interpolated between the two middle values
// when len(xs) is even; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyondTail is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// tail percentile (p > 50) that has fewer than minBeyondTail samples beyond
// it: such a figure is set by a handful of outliers.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 || p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile p%v of %d samples", p, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if beyond := len(s) - rank; p > 50 && beyond < minBeyondTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it; need %d", p, len(s), beyond, minBeyondTail)
	}
	return s[rank-1], nil
}
