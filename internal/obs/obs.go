// Package obs is the simulator's observability layer: typed per-step event
// tracing, an atomic metrics registry, and profiling helpers. The paper's
// analysis (§4–§5) is fundamentally time-resolved — when the hybrid policy
// crosses from fetch gating to DVS, how long sensors sit above the 81.8 °C
// trigger, how often the 10 µs DVS stall fires — and this package turns
// those questions from guess-and-rerun exercises into trace queries.
//
// The contract with the hot loop is zero-cost-when-disabled: core.Sim
// guards every emission behind a single nil-interface check, so a run with
// no tracer pays one predictable branch per thermal step (<2% measured;
// see BenchmarkTracerNil in the repository root). Tracers therefore do not
// need their own "enabled" notion.
//
// Events use one flat struct with a Kind tag rather than an interface per
// type: emission allocates nothing, sinks switch on Kind, and new fields
// extend the schema without breaking existing tracers. Slices in an Event
// (Temps, Power, Readings) are borrowed from the simulator's scratch
// buffers and are valid only for the duration of the Emit call — a tracer
// that retains events must copy them (Ring does).
package obs

import "sync"

// Kind discriminates event types.
type Kind uint8

const (
	// KindStep is one thermal step: the per-block temperature and power
	// state after advancing the RC model by Dt, plus the actuator state
	// the step executed under.
	KindStep Kind = iota
	// KindSensor is one sensor-bank sample (what the comparator hardware
	// sees), emitted at the sampling rate.
	KindSensor
	// KindDecision is the DTM policy's requested actuator state for the
	// next sample period, before the simulator applies hardware costs.
	KindDecision
	// KindActuation is an applied actuator change: fetch-gate level,
	// clock stop, or a DVS transition starting (SwitchStarted) or a
	// pending ideal-mode transition becoming live (SwitchApplied).
	KindActuation
	// KindCrossing marks the hottest true block temperature crossing the
	// trigger or emergency threshold in either direction.
	KindCrossing
)

var kindNames = [...]string{"step", "sensor", "decision", "actuation", "crossing"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Meta describes one run; sinks receive it in Begin and use it to resolve
// block indices to names and to stamp thresholds into the output header.
type Meta struct {
	Benchmark string
	Policy    string
	Blocks    []string // block names, indexed like Event.Temps/Power

	ThermalStepCycles int
	SamplePeriod      float64 // seconds between sensor samples
	Trigger           float64 // °C, DTM response threshold
	Emergency         float64 // °C, never-exceed threshold
}

// Event is one trace record. Which fields are meaningful depends on Kind;
// unused fields are zero. Time is simulated seconds since the run loop
// started (the DTM settle phase included — Measuring distinguishes it),
// Cycle the core's absolute cycle counter, Step the thermal-step index.
type Event struct {
	Kind      Kind
	Time      float64
	Cycle     uint64
	Step      uint64
	Measuring bool

	// KindStep (Temps/Power borrowed; also MaxTemp on KindCrossing).
	Dt             float64
	Temps          []float64
	Power          []float64
	MaxTemp        float64
	Hottest        int
	Level          int     // applied DVS ladder level (also KindActuation target)
	GateFrac       float64 // applied fetch-gate fraction (also KindActuation)
	ClockStop      bool    // applied clock stop (also KindActuation)
	Stalled        bool    // this step executed inside a DVS switch stall
	StallRemaining float64 // seconds of switch stall left after this step

	// KindSensor (Readings borrowed).
	Readings   []float64
	MaxReading float64

	// KindDecision: the policy's raw request.
	DecGate      float64
	DecLevel     int
	DecClockStop bool

	// KindActuation.
	FromLevel     int  // previous level when a DVS transition starts/applies
	SwitchStarted bool // a DVS transition began this sample
	SwitchStalls  bool // ...and the pipeline stalls through it
	SwitchApplied bool // a pending ideal-mode transition became live

	// KindCrossing.
	Threshold string // "trigger" or "emergency"
	Above     bool   // direction: true = crossed upward
}

// Tracer receives the event stream of one simulation run. Begin is called
// once before the first event, End once after the last (including error
// aborts). Implementations are not required to be goroutine-safe: the
// simulator emits from a single goroutine, and concurrent runs must each
// get their own Tracer instance (MetricsTracer instances may share one
// Registry — the registry is the concurrency-safe aggregation point).
type Tracer interface {
	Begin(meta Meta)
	Emit(ev *Event)
	End()
}

// Tally is the one fold of an event stream into DTM residency and
// counts. Every reader of the stream accumulates through Add:
// report.TraceSummary embeds a Tally per trace, and MetricsTracer folds
// each run into its own and publishes it to a Registry in End. Set
// Trigger and Emergency from the run's Meta before the first Add.
type Tally struct {
	Trigger   float64 // °C
	Emergency float64 // °C

	Events int64 // events folded
	Steps  int64 // thermal step events

	// Residency, in simulated seconds summed over step events.
	Duration       float64 // total stepped time
	AboveTrigger   float64 // max temp above the trigger threshold
	AboveEmergency float64 // max temp above the emergency threshold
	Gated          float64 // fetch gate engaged (gate > 0)
	LowV           float64 // DVS level above nominal (level > 0)
	ClockStopped   float64
	Stalled        float64 // inside a DVS switch stall

	// Actuation/crossing counts.
	DVSSwitches      int64 // DVS transitions started
	TriggerCrossings int64 // upward trigger crossings
	EmergencyUp      int64 // upward emergency crossings
}

// Add folds one event into the tally. An event of a kind it does not
// know is counted and accumulates nothing.
func (t *Tally) Add(ev *Event) {
	t.Events++
	switch ev.Kind {
	case KindStep:
		t.Steps++
		t.Duration += ev.Dt
		if ev.MaxTemp > t.Trigger {
			t.AboveTrigger += ev.Dt
		}
		if ev.MaxTemp > t.Emergency {
			t.AboveEmergency += ev.Dt
		}
		if ev.GateFrac > 0 {
			t.Gated += ev.Dt
		}
		if ev.Level > 0 {
			t.LowV += ev.Dt
		}
		if ev.ClockStop {
			t.ClockStopped += ev.Dt
		}
		if ev.Stalled {
			t.Stalled += ev.Dt
		}
	case KindActuation:
		if ev.SwitchStarted {
			t.DVSSwitches++
		}
	case KindCrossing:
		if ev.Above {
			switch ev.Threshold {
			case "trigger":
				t.TriggerCrossings++
			case "emergency":
				t.EmergencyUp++
			}
		}
	}
}

// multi fans events out to several tracers in order.
type multi struct{ ts []Tracer }

// Combine returns a Tracer feeding every non-nil argument, nil if none
// remain, or the sole survivor unwrapped.
func Combine(ts ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{ts: kept}
}

func (m *multi) Begin(meta Meta) {
	for _, t := range m.ts {
		t.Begin(meta)
	}
}

func (m *multi) Emit(ev *Event) {
	for _, t := range m.ts {
		t.Emit(ev)
	}
}

func (m *multi) End() {
	for _, t := range m.ts {
		t.End()
	}
}

// Ring keeps the last N events in a ring buffer, copying borrowed slices
// into per-slot storage so retained events stay valid. It is the
// lightweight always-on option for post-mortem debugging: run with a Ring
// attached, and on an unexpected result dump the tail of the event stream
// without paying for a full sink.
//
// Unlike sinks, a Ring IS safe for concurrent Emit: it is the natural
// "keep the tail of everything" tracer to share across a worker pool (via
// Combine with per-run tracers), so it takes a mutex per emission. The
// single-goroutine cost is an uncontended lock, noise next to the slice
// copies.
type Ring struct {
	mu    sync.Mutex
	meta  Meta    // guarded-by: mu
	buf   []Event // guarded-by: mu
	next  int     // guarded-by: mu
	full  bool    // guarded-by: mu
	total uint64  // guarded-by: mu
}

// NewRing returns a ring tracer holding the most recent n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

func (r *Ring) Begin(meta Meta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta = meta
}

func (r *Ring) End() {}

// Emit copies the event (including slices) into the ring.
func (r *Ring) Emit(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := &r.buf[r.next]
	temps, power, readings := slot.Temps, slot.Power, slot.Readings
	*slot = *ev
	slot.Temps = append(temps[:0], ev.Temps...)
	slot.Power = append(power[:0], ev.Power...)
	slot.Readings = append(readings[:0], ev.Readings...)
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Total returns how many events were emitted over the run (not just the
// retained tail).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the run metadata and a deep copy of the retained
// events, oldest first. The copy shares no storage with the ring (the
// per-event Temps/Power/Readings slices are duplicated), so it stays
// valid — and race-free — while the simulator keeps emitting. It is the
// ring's one reader, used by the serve dashboard.
func (r *Ring) Snapshot() (Meta, []Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ordered []Event
	if !r.full {
		ordered = r.buf[:r.next]
	} else {
		ordered = make([]Event, 0, len(r.buf))
		ordered = append(ordered, r.buf[r.next:]...)
		ordered = append(ordered, r.buf[:r.next]...)
	}
	out := make([]Event, len(ordered))
	for i := range ordered {
		out[i] = ordered[i]
		out[i].Temps = append([]float64(nil), ordered[i].Temps...)
		out[i].Power = append([]float64(nil), ordered[i].Power...)
		out[i].Readings = append([]float64(nil), ordered[i].Readings...)
	}
	return r.meta, out
}
