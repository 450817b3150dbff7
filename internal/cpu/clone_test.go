package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"hybriddtm/internal/trace"
)

// cloneSchedule mixes gate settings, issue-domain gating and a frequency
// change so the clone is exercised through every kernel path.
var cloneSchedule = []chunk{
	{n: 30_000},
	{n: 20_000, gates: Gates{Fetch: 1.0 / 3}},
	{n: 20_000, gates: Gates{Int: 0.5, Mem: 0.25}, ratio: 0.85},
	{n: 30_000, ratio: 1},
}

func runChunks(t *testing.T, c *Core, sched []chunk) []Activity {
	t.Helper()
	acts := make([]Activity, len(sched))
	for i, ch := range sched {
		if ch.ratio != 0 {
			if err := c.SetFrequencyRatio(ch.ratio); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RunGated(ch.n, ch.gates, &acts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return acts
}

// TestCloneIsIndependent checks Core.Clone against the original: both run
// through the same gate schedule match activity counter for counter and
// end in deeply equal state (pipeline rings, queues, MSHRs, predictor,
// caches, trace cursor), and running one leaves the other untouched.
func TestCloneIsIndependent(t *testing.T) {
	orig := newCore(t, testProfile())
	if _, err := orig.Run(200_000, 0, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, cl) {
		t.Fatal("fresh clone differs from its source")
	}

	clActs := runChunks(t, cl, cloneSchedule)
	if !reflect.DeepEqual(orig, snap) {
		t.Fatal("running the clone changed the original")
	}
	origActs := runChunks(t, orig, cloneSchedule)
	for i := range cloneSchedule {
		if origActs[i] != clActs[i] {
			t.Errorf("chunk %d: clone diverged from original\norig:  %+v\nclone: %+v", i, origActs[i], clActs[i])
		}
	}
	if !reflect.DeepEqual(orig, cl) {
		t.Error("original and clone end in different states after the same schedule")
	}
	if orig.Committed() == snap.Committed() {
		t.Error("schedule committed nothing; the comparison is vacuous")
	}
}

// TestCloneRecordedTraceFails: a core replaying a recorded trace has no
// copyable cursor, so Clone must refuse rather than share the reader.
func TestCloneRecordedTraceFails(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, testProfile(), 1000); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), rd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clone(); err == nil {
		t.Error("cloned a core fed by a trace.Reader")
	}
}
