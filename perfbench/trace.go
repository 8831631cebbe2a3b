package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Spans of one circuit or request share Trace;
// Parent is the Span id of the enclosing span, 0 for a root.
type span struct {
	Trace  string    `json:"trace"`
	Span   int       `json:"span"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// layer is the repository module a span belongs to: the part of its name
// before the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id (0 when tracing is off).
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// stages lays the program's stage timers out as consecutive child spans
// starting at the parent's start. The program reports each stage's duration
// but not its start, and runs the stages one after another.
func (t *tracer) stages(trace string, parent int, start time.Time, names []string, ds []time.Duration) {
	at := start
	for i, d := range ds {
		if d <= 0 {
			continue
		}
		t.add(trace, parent, names[i], at, at.Add(d))
		at = at.Add(d)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.Span] = i
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.Span])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerSelfMS sums self time per layer, in milliseconds, for every layer in
// layers (absent layers report 0).
func layerSelfMS(spans []span, layers []string) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if _, ok := out[s.layer()]; ok {
			out[s.layer()] += float64(self[i]) / float64(time.Millisecond)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
