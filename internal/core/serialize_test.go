package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestWorkloadRoundTrip(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 50, Dist: "lognormal", EstNoise: 0.2, Seed: 3})
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || back.NumBlocks != w.NumBlocks {
		t.Fatalf("metadata lost: %+v", back)
	}
	if len(back.Tasks) != len(w.Tasks) {
		t.Fatalf("%d tasks", len(back.Tasks))
	}
	for i := range w.Tasks {
		a, b := w.Tasks[i], back.Tasks[i]
		if a.ID != b.ID || a.Cost != b.Cost || a.EstCost != b.EstCost {
			t.Fatalf("task %d changed: %+v vs %+v", i, a, b)
		}
		if len(a.Blocks) != len(b.Blocks) {
			t.Fatalf("task %d blocks changed", i)
		}
	}
	// A round-tripped workload must behave identically under a scheduler.
	m := testMachine(8)
	r1 := RunScheduler(StaticCyclicSched{}, w, m)
	r2 := RunScheduler(StaticCyclicSched{}, back, m)
	if r1.Makespan != r2.Makespan {
		t.Fatalf("behaviour changed after round trip: %v vs %v", r1.Makespan, r2.Makespan)
	}
}

func TestReadWorkloadRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":99,"name":"x","numBlocks":0,"blockBytes":[],"tasks":[]}`,
		`{"version":1,"name":"x","numBlocks":2,"blockBytes":[1],"tasks":[]}`,
		`{"version":1,"name":"x","numBlocks":1,"blockBytes":[8],"tasks":[{"id":0,"cost":-1,"estCost":1,"blocks":[0]}]}`,
		`{"version":1,"name":"x","numBlocks":1,"blockBytes":[8],"tasks":[{"id":0,"cost":1,"estCost":1,"blocks":[5]}]}`,
	}
	for i, c := range cases {
		if _, err := ReadWorkload(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestFockWorkloadRoundTrip(t *testing.T) {
	fw := fockWorkload(t, 1)
	w := FromFock(fw)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalCost() != w.TotalCost() {
		t.Fatalf("cost changed: %v vs %v", back.TotalCost(), w.TotalCost())
	}
}
