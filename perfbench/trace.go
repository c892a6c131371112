package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Parent is 0 for a root span; Op groups the
// spans of one benchmark operation (one request, one synthesis).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: "enum.RunContext"
// belongs to layer enum, "bench.pass" to the benchmark itself.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; call end on the result. Safe for concurrent use.
func (t *tracer) begin(name string, parent, op int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}}
}

type openSpan struct {
	t *tracer
	s span
}

// id is the span's identifier for its children (0 when not tracing).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// selfTimes returns each layer's self time in milliseconds: a span's
// duration minus the part of its interval covered by its children,
// summed per layer.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.layer()] += float64(self) / 1e6
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi]. Children of one span can overlap when they ran concurrently.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and the run's context as one JSON document.
func (t *tracer) write(path string, info any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Info  any    `json:"info"`
		Spans []span `json:"spans"`
	}{info, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
