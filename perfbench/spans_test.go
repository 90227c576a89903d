package main

import (
	"testing"
	"time"
)

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 50},  // overlaps the first: union 10..50
		{Start: 90, End: 120}, // clipped to the parent: 90..100
	}
	if got := covered(p, kids); got != 50 {
		t.Errorf("covered = %v, want 50", got)
	}
	if got := covered(p, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "run", Start: 50, End: 80},
	}
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt
	}
	if p := got["pass"]; p.Self != 30 || p.Total != 100 {
		t.Errorf("pass self %v total %v, want 30 and 100", p.Self, p.Total)
	}
	if r := got["run"]; r.Count != 2 || r.Self != 80 {
		t.Errorf("run count %d self %v, want 2 and 80", r.Count, r.Self)
	}
	var nilTracer *tracer
	if id := nilTracer.start("x", 0, 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
