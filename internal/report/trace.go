// Trace ingestion: dtmreport's reader for the schema-v1 JSONL event
// stream (see internal/obs/sink.go). The reader decodes each record into
// an obs.Event and feeds it to fold, the one aggregation of events into
// what the report renders — a thermal/actuation timeline plus DTM
// residency and switch counts. SummarizeEvents (live.go) runs the same
// fold over in-memory events. Raw events are not retained, so a
// multi-gigabyte trace summarizes in one streaming pass.
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

// TraceSummary is the aggregate of one JSONL trace file.
type TraceSummary struct {
	File      string // base name of the source file
	Schema    int
	Benchmark string
	Policy    string
	Blocks    []string
	Trigger   float64 // °C
	Emergency float64 // °C

	Events int64 // event records (footer count when present)

	// Timeline, downsampled to at most maxTimelinePoints step samples.
	Points []TracePoint

	// Residency, in simulated seconds summed over step events.
	Duration     float64 // total stepped time
	AboveTrigger float64 // max temp above the trigger threshold
	Gated        float64 // fetch gate engaged (gate > 0)
	LowV         float64 // DVS level above nominal (level > 0)
	ClockStopped float64
	Stalled      float64 // inside a DVS switch stall

	// Actuation/crossing counts.
	DVSSwitches      int64 // DVS transitions started
	TriggerCrossings int64 // upward trigger crossings
	EmergencyUp      int64 // upward emergency crossings
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

// fold accumulates one event into the summary: the event count, the
// timeline point and residency buckets of a step, the DVS switch count,
// and the upward crossing counts. Every trace source summarizes through
// it, then downsamples the timeline once the last event is in.
func (s *TraceSummary) fold(ev *obs.Event) {
	s.Events++
	switch ev.Kind {
	case obs.KindStep:
		s.Points = append(s.Points, TracePoint{T: ev.Time, MaxTemp: ev.MaxTemp, Gate: ev.GateFrac, Level: ev.Level})
		s.Duration += ev.Dt
		if ev.MaxTemp > s.Trigger {
			s.AboveTrigger += ev.Dt
		}
		if ev.GateFrac > 0 {
			s.Gated += ev.Dt
		}
		if ev.Level > 0 {
			s.LowV += ev.Dt
		}
		if ev.ClockStop {
			s.ClockStopped += ev.Dt
		}
		if ev.Stalled {
			s.Stalled += ev.Dt
		}
	case obs.KindActuation:
		if ev.SwitchStarted {
			s.DVSSwitches++
		}
	case obs.KindCrossing:
		if ev.Above {
			switch ev.Threshold {
			case "trigger":
				s.TriggerCrossings++
			case "emergency":
				s.EmergencyUp++
			}
		}
	}
}

// kindOf maps a record's "ev" tag onto its obs.Kind. A tag this reader
// does not know, such as a kind a newer writer adds, lands past the last
// known kind, where fold counts it and accumulates nothing.
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
			sum.fold(&obs.Event{
				Kind: kindOf(rec.Ev), Time: rec.T, Dt: rec.Dt, MaxTemp: rec.MaxT,
				GateFrac: rec.Gate, Level: rec.Level, ClockStop: rec.ClockStop, Stalled: rec.Stalled,
				SwitchStarted: rec.Switch, Threshold: rec.Threshold, Above: rec.Above,
			})
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
