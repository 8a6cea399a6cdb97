package main

import (
	"strings"
	"testing"
	"time"
)

// TestServeWorkloadsEndToEnd runs both serve workloads for a short span
// through set-up, a traced measured phase and tear-down, and checks that
// every request was served with the reference bytes and that the spans
// form a valid Chrome trace. Under -race it also exercises the
// generator's goroutines, the poll queues and the daemons together.
func TestServeWorkloadsEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name string
		span time.Duration
	}{
		{"serve-hot", 500 * time.Millisecond},
		{"serve-cluster", 2 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			refs, err := loadRefs()
			if err != nil {
				t.Fatal(err)
			}
			b, err := newServeBench(c.name, 1, c.span, t.TempDir(), refs.Specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.setUp(); err != nil {
				b.tearDown()
				t.Fatal(err)
			}
			tr := newTracer()
			r := newResult()
			err = b.measure(tr, r)
			if terr := b.tearDown(); err == nil {
				err = terr
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted != len(b.sched) || r.failed != 0 {
				t.Errorf("attempted %d of %d scheduled, failed %d", r.attempted, len(b.sched), r.failed)
			}
			for _, p := range r.problems {
				// The race detector slows the process enough that the
				// generator may fall behind; wrong bytes never pass.
				if !strings.HasPrefix(p, "invalid run") {
					t.Error(p)
				}
			}
			if got := r.metrics["store.misses"].value; c.name == "serve-hot" && got != 0 {
				t.Errorf("serve-hot computed %v results, want 0", got)
			}
			if _, err := tr.writeChromeTrace(t.TempDir() + "/trace.json"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnservedRequestsFailTheRun stops the daemon after set-up, so every
// submit fails, and checks that the run is marked incorrect rather than
// scored on the requests that did get through.
func TestUnservedRequestsFailTheRun(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServeBench("serve-hot", 1, 200*time.Millisecond, t.TempDir(), refs.Specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setUp(); err != nil {
		b.tearDown()
		t.Fatal(err)
	}
	if err := stopNodes(b.running); err != nil {
		t.Fatal(err)
	}
	r := newResult()
	if err := b.measure(nil, r); err != nil {
		t.Fatal(err)
	}
	if r.attempted != len(b.sched) || r.failed != r.attempted {
		t.Errorf("attempted %d of %d scheduled, failed %d; want every one failed", r.attempted, len(b.sched), r.failed)
	}
	if len(r.problems) != maxListed+1 || !strings.HasSuffix(r.problems[maxListed], "more requests not served") {
		t.Errorf("problems = %q, want %d listed requests and a count of the rest", r.problems, maxListed)
	}
}
