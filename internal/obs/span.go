// Spans: a wall-clock tracing primitive. Where the Event stream answers
// "what did the simulator do at simulated time t", a Span answers "where
// did this run's wall-clock time go" — the benchmark harness
// (bench/dtmbench) records its runs' phases and probes as spans. Spans are
// deliberately tiny and deterministic-friendly:
//
//   - identity is content-derived, not random: a span id is a sha256
//     prefix over (trace id, stage name), so the same trace produces the
//     same ids on every run;
//   - times are offsets in seconds from the trace's epoch, computed with
//     time.Time.Sub — Go's monotonic clock reading — so spans measure real
//     elapsed time and never go negative across wall-clock adjustments;
//   - serialization reuses the JSONL sink conventions (one object per
//     line, "ev" discriminator first, strconv 'g' float formatting that
//     round-trips float64 exactly), so span streams are greppable next to
//     event streams.
//
// A SpanSet is not goroutine-safe; its owner serializes access.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"time"
)

// Span is one timed stage of a traced request. EndS == 0 means the stage
// is still open (Start and End offsets are strictly positive for closed
// spans because the epoch itself is the instant before the first stage
// begins... see SpanSet.clamp).
type Span struct {
	Trace  string  `json:"trace"`            // trace id
	ID     string  `json:"id"`               // deterministic: sha256(trace, name) prefix
	Parent string  `json:"parent,omitempty"` // parent span id; "" for the root
	Name   string  `json:"name"`             // stage name ("submit", "run", ...)
	StartS float64 `json:"start_s"`          // unit:s seconds since the trace epoch
	EndS   float64 `json:"end_s"`            // unit:s seconds since the trace epoch; 0 = open
}

// Duration returns the span's length in seconds, 0 while it is open.
func (sp Span) Duration() float64 {
	if sp.EndS <= 0 {
		return 0
	}
	return sp.EndS - sp.StartS
}

// SpanID derives the deterministic id of a stage within a trace: the
// first 16 hex characters of sha256(trace || 0x00 || name).
func SpanID(trace, name string) string {
	h := sha256.New()
	h.Write([]byte(trace))
	h.Write([]byte{0})
	h.Write([]byte(name))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// SpanSet accumulates the spans of one trace. Stage names are unique
// within a set; Begin of an existing name is ignored rather than
// duplicated.
type SpanSet struct {
	trace string
	epoch time.Time
	spans []Span
	index map[string]int
}

// NewSpanSet starts a trace at epoch. All span offsets are measured from
// epoch via the monotonic clock carried in the time.Time values.
func NewSpanSet(trace string, epoch time.Time) *SpanSet {
	return &SpanSet{trace: trace, epoch: epoch, index: make(map[string]int, 8)}
}

// since converts an instant into a non-negative epoch offset. The clamp
// protects against callers passing a time captured before the epoch.
func (ss *SpanSet) since(t time.Time) float64 {
	d := t.Sub(ss.epoch).Seconds()
	if d < 0 {
		return 0
	}
	return d
}

// Begin opens the named stage at time at, under parent (a stage name,
// not an id; "" makes it a child of nothing, i.e. the root). Opening an
// already-known stage is a no-op.
func (ss *SpanSet) Begin(name, parent string, at time.Time) {
	if _, ok := ss.index[name]; ok {
		return
	}
	parentID := ""
	if parent != "" {
		parentID = SpanID(ss.trace, parent)
	}
	ss.index[name] = len(ss.spans)
	ss.spans = append(ss.spans, Span{
		Trace:  ss.trace,
		ID:     SpanID(ss.trace, name),
		Parent: parentID,
		Name:   name,
		StartS: ss.since(at),
	})
}

// End closes the named stage at time at. Unknown or already-closed
// stages are ignored.
func (ss *SpanSet) End(name string, at time.Time) {
	i, ok := ss.index[name]
	if !ok || ss.spans[i].EndS > 0 {
		return
	}
	end := ss.since(at)
	if end < ss.spans[i].StartS {
		end = ss.spans[i].StartS
	}
	ss.spans[i].EndS = end
}

// Record adds the named stage closed over [start, end] in one call.
func (ss *SpanSet) Record(name, parent string, start, end time.Time) {
	ss.Begin(name, parent, start)
	ss.End(name, end)
}

// Spans returns a copy of the accumulated spans in creation order.
func (ss *SpanSet) Spans() []Span {
	return append([]Span(nil), ss.spans...)
}

// AppendJSONL appends one span as a JSONL record (newline included),
// following the sink conventions: "ev" discriminator first, strconv 'g'
// float formatting. An open span carries "end_s":0.
func (sp Span) AppendJSONL(buf []byte) []byte {
	buf = append(buf, `{"ev":"span"`...)
	key := func(name string) {
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, ':')
	}
	key("trace")
	buf = strconv.AppendQuote(buf, sp.Trace)
	key("id")
	buf = strconv.AppendQuote(buf, sp.ID)
	key("parent")
	buf = strconv.AppendQuote(buf, sp.Parent)
	key("name")
	buf = strconv.AppendQuote(buf, sp.Name)
	key("start_s")
	buf = strconv.AppendFloat(buf, sp.StartS, 'g', -1, 64)
	key("end_s")
	buf = strconv.AppendFloat(buf, sp.EndS, 'g', -1, 64)
	buf = append(buf, '}', '\n')
	return buf
}
