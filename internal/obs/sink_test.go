package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// testMeta and testEvents exercise every Kind through the sink.
func testMeta() Meta {
	return Meta{
		Benchmark:         "bzip2",
		Policy:            "Hyb",
		Blocks:            []string{"IntReg", "IntExec"},
		ThermalStepCycles: 10000,
		SamplePeriod:      1e-4,
		Trigger:           81.8,
		Emergency:         85.0,
	}
}

func testEvents() []Event {
	return []Event{
		{Kind: KindStep, Time: 1e-6, Cycle: 10000, Step: 1, Measuring: true,
			Dt: 3.3e-6, Temps: []float64{82.5, 81.0}, Power: []float64{4.2, 1.1},
			MaxTemp: 82.5, Hottest: 0, Level: 1, GateFrac: 0.5, StallRemaining: 2e-6, Stalled: true},
		{Kind: KindSensor, Time: 1e-4, Cycle: 20000, Step: 2,
			Readings: []float64{82.6, 81.2}, MaxReading: 82.6},
		{Kind: KindDecision, Time: 1e-4, Cycle: 20000, Step: 2,
			DecGate: 0.25, DecLevel: 1, DecClockStop: false},
		{Kind: KindActuation, Time: 1e-4, Cycle: 20000, Step: 2,
			GateFrac: 0.25, Level: 1, FromLevel: 0, SwitchStarted: true, SwitchStalls: true},
		{Kind: KindCrossing, Time: 2e-4, Cycle: 30000, Step: 3,
			Threshold: "trigger", Above: true, MaxTemp: 81.9},
	}
}

func runSink(t *testing.T, sink Tracer) {
	t.Helper()
	sink.Begin(testMeta())
	events := testEvents()
	for i := range events {
		sink.Emit(&events[i])
	}
	sink.End()
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	runSink(t, s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 5 {
		t.Errorf("Events() = %d, want 5", s.Events())
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 7 { // header + 5 events + footer
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), buf.String())
	}
	recs := make([]map[string]any, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
	}

	hdr := recs[0]
	if hdr["ev"] != "begin" || hdr["schema"] != float64(SchemaVersion) {
		t.Errorf("header = %v", hdr)
	}
	if hdr["benchmark"] != "bzip2" || hdr["policy"] != "Hyb" || hdr["trigger_c"] != 81.8 {
		t.Errorf("header metadata wrong: %v", hdr)
	}
	if blocks, _ := hdr["blocks"].([]any); len(blocks) != 2 || blocks[0] != "IntReg" {
		t.Errorf("header blocks = %v", hdr["blocks"])
	}

	wantEv := []string{"step", "sensor", "decision", "actuation", "crossing"}
	for i, want := range wantEv {
		if recs[i+1]["ev"] != want {
			t.Errorf("record %d: ev = %v, want %q", i+1, recs[i+1]["ev"], want)
		}
	}
	step := recs[1]
	if step["max_t"] != 82.5 || step["hottest"] != "IntReg" || step["stalled"] != true {
		t.Errorf("step record = %v", step)
	}
	if temps, _ := step["temps"].([]any); len(temps) != 2 || temps[0] != 82.5 {
		t.Errorf("step temps = %v", step["temps"])
	}
	if sensor := recs[2]; sensor["max_r"] != 82.6 {
		t.Errorf("sensor record = %v", sensor)
	}
	if act := recs[4]; act["switch"] != true || act["from_level"] != float64(0) {
		t.Errorf("actuation record = %v", act)
	}
	if cross := recs[5]; cross["threshold"] != "trigger" || cross["above"] != true {
		t.Errorf("crossing record = %v", cross)
	}
	if foot := recs[6]; foot["ev"] != "end" || foot["events"] != float64(5) {
		t.Errorf("footer = %v", foot)
	}
}

// TestJSONLFloatRoundTrip checks the strconv 'g' encoding round-trips
// float64 exactly — traces must be faithful to the simulation.
func TestJSONLFloatRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Begin(Meta{Blocks: []string{"b"}})
	exact := 81.80000000000001
	ev := Event{Kind: KindStep, Time: 1.0 / 3.0, MaxTemp: exact, Temps: []float64{exact}}
	s.Emit(&ev)
	s.End()

	var rec struct {
		T     float64   `json:"t"`
		MaxT  float64   `json:"max_t"`
		Temps []float64 `json:"temps"`
	}
	line := strings.Split(buf.String(), "\n")[1]
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.T != 1.0/3.0 || rec.MaxT != exact || rec.Temps[0] != exact {
		t.Errorf("floats did not round-trip: %+v", rec)
	}
}

func TestJSONLSurfacesWriteError(t *testing.T) {
	s := NewJSONL(failWriter{})
	runSink(t, s)
	if s.Err() == nil {
		t.Error("Err() = nil after writing to a failing writer")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }
