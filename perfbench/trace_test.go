package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var tr tracer
	root := tr.add("c1", 0, "pipeline.map", at(0), at(100))
	tr.add("c1", root, "exact.solve", at(10), at(50))
	tr.add("c1", root, "exact.solve", at(40), at(60))      // overlaps the first child
	tr.add("c1", root, "pipeline.verify", at(90), at(120)) // runs past the parent
	probe := tr.add("c1", 0, "sat.witness_probe", at(200), at(230))
	tr.add("c1", probe, "sat.inner", at(205), at(215))

	self := selfTimes(tr.spans)
	want := []time.Duration{
		40 * time.Millisecond, // 100 − [10,60) − [90,100)
		40 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		20 * time.Millisecond, 10 * time.Millisecond,
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d (%s): self %v, want %v", i+1, tr.spans[i].Name, self[i], w)
		}
	}

	layers := layerSelfMS(tr.spans, []string{"pipeline", "exact", "sat", "arch"})
	for l, w := range map[string]float64{"pipeline": 70, "exact": 60, "sat": 30, "arch": 0} {
		if layers[l] != w {
			t.Errorf("layer %s: %v ms, want %v", l, layers[l], w)
		}
	}
}

func TestStagesAreConsecutiveChildren(t *testing.T) {
	var tr tracer
	start := time.Unix(0, 0)
	root := tr.add("c", 0, "pipeline.map", start, start.Add(time.Second))
	tr.stages("c", root, start, []string{"a.x", "b.y", "c.z"}, []time.Duration{time.Millisecond, 0, 2 * time.Millisecond})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3 (a zero stage is skipped)", len(tr.spans))
	}
	a, c := tr.spans[1], tr.spans[2]
	if a.Parent != root || c.Parent != root || !a.End.Equal(c.Start) || c.dur() != 2*time.Millisecond {
		t.Errorf("stages laid out wrongly: %+v %+v", a, c)
	}
	var off *tracer
	if id := off.add("c", 0, "x.y", start, start); id != 0 {
		t.Errorf("a nil tracer returned span id %d", id)
	}
}
