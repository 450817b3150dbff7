package obs

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindStep:      "step",
		KindSensor:    "sensor",
		KindDecision:  "decision",
		KindActuation: "actuation",
		KindCrossing:  "crossing",
		Kind(200):     "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// recorder is a test tracer that copies everything it sees.
type recorder struct {
	meta   Meta
	begun  int
	ended  int
	events []Event
}

func (r *recorder) Begin(meta Meta) { r.meta = meta; r.begun++ }
func (r *recorder) End()            { r.ended++ }
func (r *recorder) Emit(ev *Event) {
	e := *ev
	e.Temps = append([]float64(nil), ev.Temps...)
	e.Power = append([]float64(nil), ev.Power...)
	e.Readings = append([]float64(nil), ev.Readings...)
	r.events = append(r.events, e)
}

func TestCombine(t *testing.T) {
	if got := Combine(); got != nil {
		t.Errorf("Combine() = %v, want nil", got)
	}
	if got := Combine(nil, nil); got != nil {
		t.Errorf("Combine(nil, nil) = %v, want nil", got)
	}
	a := &recorder{}
	if got := Combine(nil, a); got != Tracer(a) {
		t.Errorf("Combine(nil, a) = %v, want the sole survivor unwrapped", got)
	}
	b := &recorder{}
	c := Combine(a, nil, b)
	c.Begin(Meta{Benchmark: "bzip2"})
	ev := Event{Kind: KindStep, Step: 7, Temps: []float64{1, 2}}
	c.Emit(&ev)
	c.End()
	for i, r := range []*recorder{a, b} {
		if r.begun != 1 || r.ended != 1 || len(r.events) != 1 {
			t.Fatalf("tracer %d: begun=%d ended=%d events=%d, want 1/1/1", i, r.begun, r.ended, len(r.events))
		}
		if r.meta.Benchmark != "bzip2" || r.events[0].Step != 7 {
			t.Errorf("tracer %d saw wrong data: %+v", i, r.events[0])
		}
	}
}

func TestRingRetainsTail(t *testing.T) {
	r := NewRing(3)
	r.Begin(Meta{Policy: "Hyb"})
	for i := 0; i < 5; i++ {
		ev := Event{Kind: KindStep, Step: uint64(i)}
		r.Emit(&ev)
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	meta, got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, want := range []uint64{2, 3, 4} {
		if got[i].Step != want {
			t.Errorf("event %d: Step = %d, want %d (oldest first)", i, got[i].Step, want)
		}
	}
	if meta.Policy != "Hyb" {
		t.Errorf("Meta.Policy = %q", meta.Policy)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	ev := Event{Kind: KindSensor, Step: 1}
	r.Emit(&ev)
	_, got := r.Snapshot()
	if len(got) != 1 || got[0].Step != 1 {
		t.Fatalf("Snapshot() = %+v, want the single emitted event", got)
	}
}

// TestRingCopiesBorrowedSlices is the borrowed-slice contract: the
// simulator reuses its scratch buffers between Emit calls, so a retaining
// tracer must deep-copy or it reads future steps' data.
func TestRingCopiesBorrowedSlices(t *testing.T) {
	r := NewRing(4)
	scratch := []float64{70.0, 80.0}
	ev := Event{Kind: KindStep, Temps: scratch, Power: scratch}
	r.Emit(&ev)
	scratch[0] = -1 // simulator overwrites its buffer for the next step
	_, events := r.Snapshot()
	got := events[0]
	if got.Temps[0] != 70.0 || got.Power[0] != 70.0 {
		t.Errorf("ring aliased the borrowed slice: temps=%v power=%v", got.Temps, got.Power)
	}
}
