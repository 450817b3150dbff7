package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hybriddtm/internal/obs"
)

// liveFixture builds a small synthetic event stream exercising every
// aggregation bucket: steps with gating/DVS/clockstop/stall, a switch
// actuation, and trigger + emergency crossings.
func liveFixture() (obs.Meta, []obs.Event) {
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

// TestSummarizeEventsMatchesReadTrace pins ReadTrace's mapping from JSONL
// records back onto obs.Event: both paths share one fold, so the same
// events routed through the JSONL sink and read back must produce the
// same summary as folding them directly.
func TestSummarizeEventsMatchesReadTrace(t *testing.T) {
	meta, evs := liveFixture()

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
	live := SummarizeEvents(meta, evs, "t.jsonl")

	// Event counts legitimately differ (the sink's footer counts records,
	// the live path counts the retained slice); normalize before diffing.
	batch.Events, live.Events = 0, 0
	if !reflect.DeepEqual(batch, live) {
		t.Errorf("live summary diverged from batch summary:\nbatch: %+v\nlive:  %+v", batch, live)
	}
}

func TestSummarizeEventsCounts(t *testing.T) {
	meta, evs := liveFixture()
	sum := SummarizeEvents(meta, evs, "ring")
	if sum.Events != int64(len(evs)) {
		t.Errorf("Events = %d, want %d", sum.Events, len(evs))
	}
	if len(sum.Points) != 4 {
		t.Errorf("Points = %d, want 4 step samples", len(sum.Points))
	}
	if sum.DVSSwitches != 1 || sum.TriggerCrossings != 1 || sum.EmergencyUp != 1 {
		t.Errorf("counts = switches %d, trigger-up %d, emergency-up %d; want 1,1,1",
			sum.DVSSwitches, sum.TriggerCrossings, sum.EmergencyUp)
	}
	if sum.Gated <= 0 || sum.LowV <= 0 || sum.ClockStopped <= 0 || sum.Stalled <= 0 {
		t.Errorf("residency buckets missing: %+v", sum)
	}
	if svgs := TimelineSVGs(sum); len(svgs) != 2 {
		t.Errorf("TimelineSVGs = %d charts, want 2", len(svgs))
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

func TestSparklineStable(t *testing.T) {
	vals := []float64{1, 4, 2, 8, 5}
	a := Sparkline(vals, 120, 24, "#2980b9")
	b := Sparkline(vals, 120, 24, "#2980b9")
	if a != b {
		t.Fatalf("Sparkline is not byte-stable")
	}
	if !strings.Contains(a, "<polyline") || !strings.Contains(a, "#2980b9") {
		t.Errorf("sparkline missing polyline/color: %s", a)
	}
	if strings.Contains(a, "NaN") {
		t.Errorf("sparkline produced NaN coordinates: %s", a)
	}
	empty := Sparkline(nil, 120, 24, "#2980b9")
	if strings.Contains(empty, "<polyline") {
		t.Errorf("empty sparkline should have no polyline: %s", empty)
	}
	flat := Sparkline([]float64{3, 3, 3}, 0, 0, "#27ae60")
	if strings.Contains(flat, "NaN") || !strings.Contains(flat, "<polyline") {
		t.Errorf("flat sparkline must render without NaN: %s", flat)
	}
}
