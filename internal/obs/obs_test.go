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
