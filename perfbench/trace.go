package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer: the
// benchmark wraps each public call it makes, so the program itself carries
// no instrumentation.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	// AllocBytes is what the heap allocated while the span was open.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Calls counts the layer calls a batch span covers (0 for one call).
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a child's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one pointer test per call.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, AllocBytes: t.heapAllocs(),
		Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, the innermost open one; calls is the number of layer
// calls it covered when it wraps a batch.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	s.AllocBytes = t.heapAllocs() - s.AllocBytes
	s.Calls = calls
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id, 0)
	return err
}

// named returns the spans called name, in start order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianDur is the median duration of the spans called name, in seconds.
func (t *tracer) medianDur(name string) float64 {
	var d []float64
	for _, s := range t.named(name) {
		d = append(d, s.dur())
	}
	return median(d)
}

// medianAllocMB is the median allocation of the spans called name, in MB.
func (t *tracer) medianAllocMB(name string) float64 {
	var a []float64
	for _, s := range t.named(name) {
		a = append(a, float64(s.AllocBytes)/1e6)
	}
	return median(a)
}

// total sums the duration (seconds), allocation (bytes) and count of the
// spans whose name starts with prefix.
func (t *tracer) total(prefix string) (sec float64, alloc uint64, n int) {
	if t == nil {
		return 0, 0, 0
	}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			sec += s.dur()
			alloc += s.AllocBytes
			n++
		}
	}
	return sec, alloc, n
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write span %d: %w", s.ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// median returns the median of xs (0 for none); xs is not modified.
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
