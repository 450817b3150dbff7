package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hybriddtm/internal/obs"
)

// traceFixture builds a small synthetic event stream exercising every
// aggregation bucket: steps with gating/DVS/clockstop/stall, a switch
// actuation, and trigger + emergency crossings.
func traceFixture() (obs.Meta, []obs.Event) {
	meta := obs.Meta{
		Benchmark: "synthetic", Policy: "hybrid",
		Blocks:  []string{"icache", "intreg"},
		Trigger: 81.8, Emergency: 83.0,
	}
	evs := []obs.Event{
		{Kind: obs.KindStep, Time: 0.0001, Dt: 0.0001, MaxTemp: 80.5, Temps: []float64{80.5, 79}, Power: []float64{1, 2}},
		{Kind: obs.KindCrossing, Time: 0.0002, Threshold: "trigger", Above: true, MaxTemp: 81.9},
		{Kind: obs.KindStep, Time: 0.0002, Dt: 0.0001, MaxTemp: 81.9, GateFrac: 0.4},
		{Kind: obs.KindActuation, Time: 0.0002, SwitchStarted: true, Level: 1},
		{Kind: obs.KindStep, Time: 0.0003, Dt: 0.0001, MaxTemp: 82.2, Level: 1, Stalled: true},
		{Kind: obs.KindCrossing, Time: 0.0003, Threshold: "emergency", Above: true, MaxTemp: 83.4},
		{Kind: obs.KindStep, Time: 0.0004, Dt: 0.0001, MaxTemp: 83.4, Level: 1, ClockStop: true},
		{Kind: obs.KindCrossing, Time: 0.0005, Threshold: "trigger", Above: false, MaxTemp: 81.0},
		{Kind: obs.KindSensor, Time: 0.0005, Readings: []float64{80, 79}, MaxReading: 80},
	}
	return meta, evs
}

// readFixture routes the fixture through the JSONL sink and reads it
// back with ReadTrace.
func readFixture(t *testing.T) (obs.Meta, []obs.Event, TraceSummary) {
	t.Helper()
	meta, evs := traceFixture()

	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.Begin(meta)
	for i := range evs {
		sink.Emit(&evs[i])
	}
	sink.End()
	if err := sink.Err(); err != nil {
		t.Fatalf("sink: %v", err)
	}
	batch, err := ReadTrace(&buf, "t.jsonl")
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	return meta, evs, batch
}

// TestReadTraceMatchesDirectFold pins ReadTrace's mapping from JSONL
// records back onto obs.Event: the fixture routed through the JSONL sink
// and read back must summarize exactly as folding the events directly.
func TestReadTraceMatchesDirectFold(t *testing.T) {
	meta, evs, batch := readFixture(t)

	direct := TraceSummary{
		File:      "t.jsonl",
		Schema:    obs.SchemaVersion,
		Benchmark: meta.Benchmark,
		Policy:    meta.Policy,
		Blocks:    meta.Blocks,
		Tally:     obs.Tally{Trigger: meta.Trigger, Emergency: meta.Emergency},
	}
	for i := range evs {
		direct.fold(&evs[i])
	}
	if !reflect.DeepEqual(batch, direct) {
		t.Errorf("ReadTrace diverged from the direct fold:\nread:   %+v\ndirect: %+v", batch, direct)
	}
}

// TestReadTraceCounts checks that the summary of the fixture read back
// by ReadTrace counts every aggregation bucket the fixture hits and
// draws both timeline charts.
func TestReadTraceCounts(t *testing.T) {
	_, evs, batch := readFixture(t)
	if batch.Events != int64(len(evs)) {
		t.Errorf("Events = %d, want %d", batch.Events, len(evs))
	}
	if len(batch.Points) != 4 {
		t.Errorf("Points = %d, want 4 step samples", len(batch.Points))
	}
	if batch.DVSSwitches != 1 || batch.TriggerCrossings != 1 || batch.EmergencyUp != 1 {
		t.Errorf("counts = switches %d, trigger-up %d, emergency-up %d; want 1,1,1",
			batch.DVSSwitches, batch.TriggerCrossings, batch.EmergencyUp)
	}
	if batch.Gated <= 0 || batch.LowV <= 0 || batch.ClockStopped <= 0 || batch.Stalled <= 0 {
		t.Errorf("residency buckets missing: %+v", batch)
	}
	if svgs := timelineSVGs(batch); len(svgs) != 2 {
		t.Errorf("timelineSVGs = %d charts, want 2", len(svgs))
	}
}

// TestMetricsTracerMatchesReadTrace replays the bzip2/hyb golden trace
// through ReadTrace and through a MetricsTracer on a fresh registry: both
// fold the stream with obs.Tally, so every sim.* counter the tracer
// publishes equals the matching summary field exactly.
func TestMetricsTracerMatchesReadTrace(t *testing.T) {
	const golden = "../core/testdata/trace_bzip2_hyb.jsonl"
	sum, err := ReadTraceFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := obs.NewRegistry()
	m := obs.NewMetricsTracer(reg)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec traceRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Ev {
		case "begin":
			m.Begin(obs.Meta{Trigger: rec.TriggerC, Emergency: rec.EmergC})
		case "end":
			m.End()
		default:
			ev := rec.event()
			m.Emit(&ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Steps == 0 || sum.TriggerCrossings == 0 || sum.AboveTrigger == 0 || sum.Gated == 0 {
		t.Fatalf("golden trace exercises too little of the fold: %+v", sum.Tally)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{obs.MetricRuns, float64(reg.Counter(obs.MetricRuns).Value()), 1},
		{obs.MetricEvents, float64(reg.Counter(obs.MetricEvents).Value()), float64(sum.Events)},
		{obs.MetricThermalSteps, float64(reg.Counter(obs.MetricThermalSteps).Value()), float64(sum.Steps)},
		{obs.MetricDVSSwitches, float64(reg.Counter(obs.MetricDVSSwitches).Value()), float64(sum.DVSSwitches)},
		{obs.MetricCrossings, float64(reg.Counter(obs.MetricCrossings).Value()), float64(sum.TriggerCrossings)},
		{obs.MetricTriggerSeconds, reg.FloatCounter(obs.MetricTriggerSeconds).Value(), sum.AboveTrigger},
		{obs.MetricEmergencySecs, reg.FloatCounter(obs.MetricEmergencySecs).Value(), sum.AboveEmergency},
		{obs.MetricStallSeconds, reg.FloatCounter(obs.MetricStallSeconds).Value(), sum.Stalled},
		{obs.MetricClockStopSecs, reg.FloatCounter(obs.MetricClockStopSecs).Value(), sum.ClockStopped},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, summary has %v", c.name, c.got, c.want)
		}
	}
}

func TestDownsample(t *testing.T) {
	points := make([]TracePoint, 5003)
	for i := range points {
		points[i].T = float64(i)
	}
	got := downsample(points, maxTimelinePoints)
	if len(got) > maxTimelinePoints {
		t.Errorf("downsample kept %d points, limit %d", len(got), maxTimelinePoints)
	}
	if got[0].T != 0 {
		t.Errorf("downsample must keep the first sample, got T=%g", got[0].T)
	}
	short := []TracePoint{{T: 1}, {T: 2}}
	if !reflect.DeepEqual(downsample(short, maxTimelinePoints), short) {
		t.Errorf("short slices must pass through untouched")
	}
}
