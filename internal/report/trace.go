// Trace ingestion: dtmreport's reader for the schema-v1 JSONL event
// stream (see internal/obs/sink.go). The reader decodes each record into
// an obs.Event and feeds it to fold, which keeps the thermal/actuation
// timeline the report renders and adds the event to the summary's
// obs.Tally — the one aggregation of events into DTM residency and
// switch counts. Raw events are not retained, so a multi-gigabyte trace
// summarizes in one streaming pass.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hybriddtm/internal/obs"
)

// TracePoint is one timeline sample taken from a step event.
type TracePoint struct {
	T       float64 // simulated seconds
	MaxTemp float64 // hottest block °C
	Gate    float64 // applied fetch-gate fraction
	Level   int     // applied DVS ladder level
}

// TraceSummary is the aggregate of one JSONL trace file: its header,
// a downsampled timeline, and the obs.Tally of its events (thresholds,
// event count — the footer count when present — residency and switch
// counts), whose fields it promotes.
type TraceSummary struct {
	File      string // base name of the source file
	Schema    int
	Benchmark string
	Policy    string
	Blocks    []string

	obs.Tally

	// Timeline, downsampled to at most maxTimelinePoints step samples.
	Points []TracePoint
}

// maxTimelinePoints bounds the samples kept for SVG rendering; longer
// traces are strided down.
const maxTimelinePoints = 2000

// traceRec is the superset of schema-v1 record fields the summary needs.
type traceRec struct {
	Ev        string   `json:"ev"`
	Schema    int      `json:"schema"`
	Benchmark string   `json:"benchmark"`
	Policy    string   `json:"policy"`
	Blocks    []string `json:"blocks"`
	TriggerC  float64  `json:"trigger_c"`
	EmergC    float64  `json:"emergency_c"`

	T         float64 `json:"t"`
	Dt        float64 `json:"dt"`
	Level     int     `json:"level"`
	Gate      float64 `json:"gate"`
	ClockStop bool    `json:"clockstop"`
	Stalled   bool    `json:"stalled"`
	MaxT      float64 `json:"max_t"`
	Switch    bool    `json:"switch"`
	Threshold string  `json:"threshold"`
	Above     bool    `json:"above"`
	Events    int64   `json:"events"`
}

// fold adds one event to the summary's tally and, for a step, to its
// timeline. ReadTrace downsamples the timeline once the last event is in.
func (s *TraceSummary) fold(ev *obs.Event) {
	s.Add(ev)
	if ev.Kind == obs.KindStep {
		s.Points = append(s.Points, TracePoint{T: ev.Time, MaxTemp: ev.MaxTemp, Gate: ev.GateFrac, Level: ev.Level})
	}
}

// event maps an event record back onto the obs.Event fields the fold
// reads.
func (rec *traceRec) event() obs.Event {
	return obs.Event{
		Kind: kindOf(rec.Ev), Time: rec.T, Dt: rec.Dt, MaxTemp: rec.MaxT,
		GateFrac: rec.Gate, Level: rec.Level, ClockStop: rec.ClockStop, Stalled: rec.Stalled,
		SwitchStarted: rec.Switch, Threshold: rec.Threshold, Above: rec.Above,
	}
}

// kindOf maps a record's "ev" tag onto its obs.Kind. A tag this reader
// does not know, such as a kind a newer writer adds, lands past the last
// known kind, where the tally counts it and accumulates nothing.
func kindOf(tag string) obs.Kind {
	k := obs.KindStep
	for name := k.String(); name != tag && name != "unknown"; name = k.String() {
		k++
	}
	return k
}

// ReadTrace summarizes a schema-v1 JSONL trace stream.
func ReadTrace(r io.Reader, name string) (TraceSummary, error) {
	sum := TraceSummary{File: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var line int
	var sawBegin bool
	footer := int64(-1)
	for sc.Scan() {
		line++
		var rec traceRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return sum, fmt.Errorf("report: %s:%d: %w", name, line, err)
		}
		switch rec.Ev {
		case "begin":
			if rec.Schema > obs.SchemaVersion || rec.Schema < 1 {
				return sum, fmt.Errorf("report: %s: trace schema %d not supported (have %d)", name, rec.Schema, obs.SchemaVersion)
			}
			sum.Schema = rec.Schema
			sum.Benchmark = rec.Benchmark
			sum.Policy = rec.Policy
			sum.Blocks = rec.Blocks
			sum.Trigger = rec.TriggerC
			sum.Emergency = rec.EmergC
			sawBegin = true
		case "end":
			footer = rec.Events
		default:
			ev := rec.event()
			sum.fold(&ev)
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("report: %s: %w", name, err)
	}
	if !sawBegin {
		return sum, fmt.Errorf("report: %s: not a schema-v1 trace (no begin record)", name)
	}
	// A truncated trace (e.g. a crashed run) has no footer and keeps the
	// count of the records seen.
	if footer >= 0 {
		sum.Events = footer
	}
	sum.Points = downsample(sum.Points, maxTimelinePoints)
	return sum, nil
}

// downsample strides points down to at most limit samples.
func downsample(points []TracePoint, limit int) []TracePoint {
	if len(points) <= limit {
		return points
	}
	stride := (len(points) + limit - 1) / limit
	kept := points[:0]
	for i := 0; i < len(points); i += stride {
		kept = append(kept, points[i])
	}
	return kept
}

// ReadTraceFile summarizes the trace at path.
func ReadTraceFile(path string) (TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceSummary{}, err
	}
	defer f.Close()
	return ReadTrace(f, filepath.Base(path))
}

// frac returns num/den as a fraction in [0,1], 0 when den is 0.
func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
