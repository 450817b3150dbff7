// Trace sink: the streaming JSONL encoder for the event stream. It
// serializes inside Emit, so borrowed slices are never retained, and it
// buffers writes and surfaces the first I/O error from Err() rather than
// failing the simulation mid-run — observability must not be able to
// abort the experiment it observes.
//
// The JSONL schema is the stable, versioned interface (see DESIGN.md
// "Observability"): line 1 is a header record {"ev":"begin",...} carrying
// the run metadata and schema version, every following line is one event
// keyed by "ev", and the final line is {"ev":"end","events":N}. Numbers
// are encoded with strconv 'g' formatting, which round-trips float64
// exactly.
package obs

import (
	"bufio"
	"io"
	"strconv"
)

// SchemaVersion identifies the JSONL trace schema. Bump on any breaking
// change to record shapes (field removal or renaming; additions are
// backward compatible and do not bump it).
const SchemaVersion = 1

// JSONL streams events as JSON Lines. Create with NewJSONL; check Err()
// after End().
type JSONL struct {
	w      *bufio.Writer
	meta   Meta
	buf    []byte
	events uint64
	err    error
}

// NewJSONL returns a JSONL sink writing to w. The caller owns w (and
// closes it, if applicable) after End.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
}

// Err returns the first write error, if any.
func (s *JSONL) Err() error { return s.err }

// Events returns how many event records were written (header and footer
// excluded).
func (s *JSONL) Events() uint64 { return s.events }

func (s *JSONL) write() {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// appendKey starts or continues an object: `,"key":` (the caller opens the
// brace with the "ev" discriminator first).
func (b *JSONL) key(name string) {
	b.buf = append(b.buf, ',')
	b.buf = strconv.AppendQuote(b.buf, name)
	b.buf = append(b.buf, ':')
}

func (b *JSONL) str(name, v string) {
	b.key(name)
	b.buf = strconv.AppendQuote(b.buf, v)
}

func (b *JSONL) num(name string, v float64) {
	b.key(name)
	b.buf = strconv.AppendFloat(b.buf, v, 'g', -1, 64)
}

func (b *JSONL) integer(name string, v int64) {
	b.key(name)
	b.buf = strconv.AppendInt(b.buf, v, 10)
}

func (b *JSONL) boolean(name string, v bool) {
	b.key(name)
	b.buf = strconv.AppendBool(b.buf, v)
}

func (b *JSONL) floats(name string, vs []float64) {
	b.key(name)
	b.buf = append(b.buf, '[')
	for i, v := range vs {
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = strconv.AppendFloat(b.buf, v, 'g', -1, 64)
	}
	b.buf = append(b.buf, ']')
}

func (b *JSONL) open(ev string) {
	b.buf = append(b.buf[:0], `{"ev":`...)
	b.buf = strconv.AppendQuote(b.buf, ev)
}

func (b *JSONL) close() { b.buf = append(b.buf, '}') }

// Begin writes the header record.
func (s *JSONL) Begin(meta Meta) {
	s.meta = meta
	s.open("begin")
	s.integer("schema", SchemaVersion)
	s.str("benchmark", meta.Benchmark)
	s.str("policy", meta.Policy)
	s.key("blocks")
	s.buf = append(s.buf, '[')
	for i, b := range meta.Blocks {
		if i > 0 {
			s.buf = append(s.buf, ',')
		}
		s.buf = strconv.AppendQuote(s.buf, b)
	}
	s.buf = append(s.buf, ']')
	s.integer("thermal_step_cycles", int64(meta.ThermalStepCycles))
	s.num("sample_period_s", meta.SamplePeriod)
	s.num("trigger_c", meta.Trigger)
	s.num("emergency_c", meta.Emergency)
	s.close()
	s.write()
}

func (s *JSONL) blockName(i int) string {
	if i >= 0 && i < len(s.meta.Blocks) {
		return s.meta.Blocks[i]
	}
	return strconv.Itoa(i)
}

// Emit serializes one event record.
func (s *JSONL) Emit(ev *Event) {
	s.events++
	s.open(ev.Kind.String())
	s.num("t", ev.Time)
	s.integer("cycle", int64(ev.Cycle))
	s.integer("step", int64(ev.Step))
	s.boolean("measuring", ev.Measuring)
	switch ev.Kind {
	case KindStep:
		s.num("dt", ev.Dt)
		s.integer("level", int64(ev.Level))
		s.num("gate", ev.GateFrac)
		s.boolean("clockstop", ev.ClockStop)
		s.boolean("stalled", ev.Stalled)
		s.num("stall_s", ev.StallRemaining)
		s.num("max_t", ev.MaxTemp)
		s.str("hottest", s.blockName(ev.Hottest))
		s.floats("temps", ev.Temps)
		s.floats("power", ev.Power)
	case KindSensor:
		s.num("max_r", ev.MaxReading)
		s.floats("readings", ev.Readings)
	case KindDecision:
		s.num("gate", ev.DecGate)
		s.integer("level", int64(ev.DecLevel))
		s.boolean("clockstop", ev.DecClockStop)
	case KindActuation:
		s.num("gate", ev.GateFrac)
		s.integer("level", int64(ev.Level))
		s.integer("from_level", int64(ev.FromLevel))
		s.boolean("clockstop", ev.ClockStop)
		s.boolean("switch", ev.SwitchStarted)
		s.boolean("switch_stalls", ev.SwitchStalls)
		s.boolean("switch_applied", ev.SwitchApplied)
	case KindCrossing:
		s.str("threshold", ev.Threshold)
		s.boolean("above", ev.Above)
		s.num("max_t", ev.MaxTemp)
	}
	s.close()
	s.write()
}

// End writes the footer record and flushes.
func (s *JSONL) End() {
	s.open("end")
	s.integer("events", int64(s.events))
	s.close()
	s.write()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
}
