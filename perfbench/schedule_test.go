package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestScheduleDeterminism pins the open loop's input contract: the same
// seed gives a byte-identical schedule, a different seed a different
// one.
func TestScheduleDeterminism(t *testing.T) {
	const span = 5 * time.Second
	gens := map[string]func(seed uint64) (schedule, error){
		"serve-hot":     func(seed uint64) (schedule, error) { return hotSchedule(seed, span), nil },
		"serve-cluster": func(seed uint64) (schedule, error) { return clusterSchedule(seed, span) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: same seed gave different schedules", name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: different seeds gave the same schedule", name)
		}
		for i := 1; i < len(a); i++ {
			if a[i].At < a[i-1].At || a[i].At >= span {
				t.Fatalf("%s: arrival %d at %v out of order or past %v", name, i, a[i].At, span)
			}
		}
	}
}

// TestScheduleShape checks the offered loads the workloads are sized
// for: the arrival rate, and for the cluster the share of new specs.
func TestScheduleShape(t *testing.T) {
	const span = 20 * time.Second
	hot := hotSchedule(1, span)
	if r := float64(len(hot)) / span.Seconds(); r < 0.95*hotRate || r > 1.05*hotRate {
		t.Errorf("serve-hot rate %.0f/s, want about %.0f/s", r, hotRate)
	}
	cl, err := clusterSchedule(1, span)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	nodes := make([]int, clusterNodes)
	for _, a := range cl {
		seen[a.Spec] = true
		nodes[a.Node]++
	}
	if want := len(cl) / clusterBlock; len(seen) != want {
		t.Errorf("serve-cluster has %d distinct specs in %d arrivals, want %d", len(seen), len(cl), want)
	}
	if want := int(span.Seconds() * clusterRate); len(cl) != want {
		t.Errorf("serve-cluster has %d arrivals, want %d", len(cl), want)
	}
	for n, c := range nodes {
		if c == 0 {
			t.Errorf("node %d receives no requests", n)
		}
	}
}

// encode serializes the schedule byte-exactly, for the determinism test.
func (s schedule) encode() []byte {
	out := make([]byte, 0, len(s)*24)
	for _, a := range s {
		out = binary.LittleEndian.AppendUint64(out, uint64(a.At))
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Spec))
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Node))
	}
	return out
}
