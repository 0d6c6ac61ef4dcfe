package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. The layer is the name's prefix before the first dot;
// "bench" spans are the benchmark's own phases and cover no layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a phase root
	Req    int64  `json:"req"`    // request id: read, update, publish or sweep number
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory for the whole run. A nil tracer records
// nothing, so the end-to-end run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do wraps fn in a span and returns its error.
func (t *tracer) do(name string, parent int, req int64, fn func() error) error {
	i := t.begin(name, parent, req)
	err := fn()
	t.end(i)
	return err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
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

// total sums the durations of the spans with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of the intervals, clipped to win.
func covered(ivs []interval, win interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, win.lo), min(iv.hi, win.hi)
		if lo < hi {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.lo - b.lo) })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else {
			cur.hi = max(cur.hi, iv.hi)
		}
	}
	return total + cur.hi - cur.lo
}

// attribution is what a trace says about where a run's time went.
type attribution struct {
	selfS          map[string]float64 // per layer: span time not covered by child spans
	wallS          float64            // wall time of the phase roots
	uncoveredShare float64            // phase wall covered by no layer span, as a share
}

// attribute derives each layer's self time and the share of the phase
// roots' wall time that no layer span covers. Concurrent spans (reader
// and writer) overlap; both measures use interval unions, so overlap
// is never counted twice.
func (t *tracer) attribute() (attribution, error) {
	a := attribution{selfS: map[string]float64{}}
	children := make([][]interval, len(t.spans))
	var roots, layers []interval
	for i, s := range t.spans {
		if s.End < 0 {
			return a, fmt.Errorf("span %s (#%d) was never closed", s.Name, i)
		}
		iv := interval{s.Start, s.End}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv)
		}
		if s.Parent < 0 && s.layer() == "bench" {
			roots = append(roots, iv)
		}
		if s.layer() != "bench" {
			layers = append(layers, iv)
		}
	}
	for i, s := range t.spans {
		self := s.End - s.Start - covered(children[i], interval{s.Start, s.End})
		a.selfS[s.layer()] += float64(self) / 1e9
	}
	var wall, cov int64
	for _, r := range roots {
		wall += r.hi - r.lo
		cov += covered(layers, r)
	}
	if wall == 0 {
		return a, fmt.Errorf("the trace holds no phase")
	}
	a.wallS = float64(wall) / 1e9
	a.uncoveredShare = float64(wall-cov) / float64(wall)
	return a, nil
}
