package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark wraps its own calls
// into each package's public functions, so nothing inside the program is
// instrumented. Req ties together the spans of one operation or request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer still
// times every call, so the traced and untraced runs execute the same code
// apart from the append that records a span.
type tracer struct {
	enabled bool
	origin  time.Time
	mu      sync.Mutex
	nextID  int64
	spans   []span
}

func newTracer(enabled bool) *tracer { return &tracer{enabled: enabled, origin: time.Now()} }

// active is a span that has begun.
type active struct {
	id, parent, req int64
	name            string
	start           time.Time
}

func (tr *tracer) begin(name string, parent *active, req int64) *active {
	a := &active{name: name, req: req}
	if parent != nil {
		a.parent = parent.id
		if req == 0 {
			a.req = parent.req
		}
	}
	if tr.enabled {
		tr.mu.Lock()
		tr.nextID++
		a.id = tr.nextID
		tr.mu.Unlock()
	}
	a.start = time.Now()
	return a
}

// end closes the span and returns its duration.
func (tr *tracer) end(a *active) time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if tr.enabled {
		tr.mu.Lock()
		tr.spans = append(tr.spans, span{
			ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
			Start: a.start.Sub(tr.origin).Nanoseconds(), End: now.Sub(tr.origin).Nanoseconds(),
		})
		tr.mu.Unlock()
	}
	return d
}

// durations lists the recorded durations of every span with the name, in
// seconds.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// computeSelf sets each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func (tr *tracer) computeSelf() {
	kids := map[int64][]int{}
	for i, s := range tr.spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range tr.spans {
		p := &tr.spans[i]
		var iv [][2]int64
		for _, k := range kids[p.ID] {
			c := tr.spans[k]
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, x := range iv {
			if x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		p.Self = p.End - p.Start - covered
	}
}

// summary prints per-name span counts, total time and self time.
func (tr *tracer) summary(w io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range tr.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "trace %-28s %8d %12.6f %12.6f\n", n, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
}

// write stores the spans as JSON under dir.
func (tr *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
