package obs

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndFloatCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Counter = %d, want 5", c.Value())
	}
	var f FloatCounter
	f.Add(0.25)
	f.Add(0.5)
	if f.Value() != 0.75 {
		t.Errorf("FloatCounter = %v, want 0.75", f.Value())
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(2)
	g.Add(-5)
	if g.Value() != 0 {
		t.Errorf("Gauge = %v, want 0", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets())
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram must report NaN mean and quantiles")
	}
	for _, x := range []float64{0.0005, 0.003, 0.003, 0.010, 1.5} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-1.5165) > 1e-12 {
		t.Errorf("Sum = %v, want 1.5165", h.Sum())
	}
	if h.Max() != 1.5 {
		t.Errorf("Max = %v, want 1.5", h.Max())
	}
	// Median lands in the bucket whose upper bound is 4 ms.
	if q := h.Quantile(0.5); q != 0.004 {
		t.Errorf("P50 = %v, want 0.004", q)
	}
	// The top observation resolves to its bucket's upper bound (1.024, 2.048].
	if q := h.Quantile(1.0); q != 2.048 {
		t.Errorf("P100 = %v, want 2.048", q)
	}
}

func TestRegistrySharing(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name as a different kind must panic")
		}
	}()
	r.Gauge("a")
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z.gauge").Set(1)
	r.Counter("a.counter").Add(3)
	r.Histogram("m.hist").Observe(0.002)
	r.FloatCounter("b.float").Add(1.5)
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := []string{"a.counter", "b.float", "m.hist", "z.gauge"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Snapshot order = %v, want %v", names, want)
	}
	if snap[0].Kind != "counter" || snap[0].Value != 3 {
		t.Errorf("counter sample = %+v", snap[0])
	}
	if snap[2].Kind != "histogram" || snap[2].Value != 1 || snap[2].Sum != 0.002 {
		t.Errorf("histogram sample = %+v", snap[2])
	}

	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("summary missing %q:\n%s", name, buf.String())
		}
	}
}

// TestRegistryConcurrent hammers every metric kind from 16 goroutines;
// under -race it proves the registry needs no external locking, and the
// exact final values prove no update was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.FloatCounter("f").Add(0.5)
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Histogram("h").Observe(float64(i) * 1e-4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.FloatCounter("f").Value(); got != goroutines*iters*0.5 {
		t.Errorf("float counter = %v, want %v", got, goroutines*iters*0.5)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := r.Histogram("h").Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestMetricsTracerFoldsEvents(t *testing.T) {
	reg := NewRegistry()
	m := NewMetricsTracer(reg)
	m.Begin(Meta{Trigger: 81.8, Emergency: 85.0})
	events := []Event{
		{Kind: KindStep, Dt: 1e-6, MaxTemp: 80.0},                             // cool: nothing accumulates
		{Kind: KindStep, Dt: 1e-6, MaxTemp: 82.0, Stalled: true},              // above trigger + stalled
		{Kind: KindStep, Dt: 1e-6, MaxTemp: 86.0, ClockStop: true},            // above emergency + clock stopped
		{Kind: KindActuation, SwitchStarted: true},                            // DVS switch
		{Kind: KindActuation, SwitchApplied: true},                            // pending apply: not a new switch
		{Kind: KindCrossing, Threshold: "trigger", Above: true},               // upward crossing
		{Kind: KindCrossing, Threshold: "trigger", Above: false},              // downward: not counted
		{Kind: KindCrossing, Threshold: "emergency", Above: true},             // not a trigger crossing
		{Kind: KindSensor, MaxReading: 82.0, Readings: []float64{82.0, 81.0}}, // counted as event only
		{Kind: KindDecision, DecGate: 0.5},                                    // counted as event only
	}
	for i := range events {
		m.Emit(&events[i])
	}
	m.End()

	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{MetricRuns, float64(reg.Counter(MetricRuns).Value()), 1},
		{MetricEvents, float64(reg.Counter(MetricEvents).Value()), 10},
		{MetricThermalSteps, float64(reg.Counter(MetricThermalSteps).Value()), 3},
		{MetricDVSSwitches, float64(reg.Counter(MetricDVSSwitches).Value()), 1},
		{MetricCrossings, float64(reg.Counter(MetricCrossings).Value()), 1},
		{MetricTriggerSeconds, reg.FloatCounter(MetricTriggerSeconds).Value(), 2e-6},
		{MetricEmergencySecs, reg.FloatCounter(MetricEmergencySecs).Value(), 1e-6},
		{MetricStallSeconds, reg.FloatCounter(MetricStallSeconds).Value(), 1e-6},
		{MetricClockStopSecs, reg.FloatCounter(MetricClockStopSecs).Value(), 1e-6},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-18 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricRuns).Add(7)
	addr, stop, err := Serve(nil, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, MetricRuns) {
		t.Errorf("/metrics missing %s:\n%s", MetricRuns, body)
	}
	if got := parsePrometheus(t, get("/metrics.prom"))[promName(MetricRuns)]; got != 7 {
		t.Errorf("/metrics.prom %s = %v, want 7", MetricRuns, got)
	}
	// Other paths, such as the deleted JSON map, are not the summary.
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics.json: status %d, want 404", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestServeGracefulShutdown: the server answers while the context lives,
// refuses connections after cancellation, and stop stays idempotent.
func TestServeGracefulShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricRuns).Inc()
	ctx, cancel := context.WithCancel(context.Background())
	addr, stop, err := Serve(ctx, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("Serve returned unusable address %q: %v", addr, err)
	}

	resp, err := http.Get("http://" + addr + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.prom: %v", err)
	}
	if got := parsePrometheus(t, string(body))[promName(MetricRuns)]; got != 1 {
		t.Errorf("%s = %v, want 1", MetricRuns, got)
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := http.Get("http://" + addr + "/metrics.prom")
		if err != nil {
			break // listener is down
		}
		if time.Now().After(deadline) {
			t.Fatal("server still accepting requests after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Errorf("stop after ctx shutdown: %v", err)
	}
	if err := stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	var p ProfileFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-runtime-metrics"}); err != nil {
		t.Fatal(err)
	}

	var diag bytes.Buffer
	stop, err := p.Start(&diag)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}

	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	if !strings.Contains(diag.String(), "/sched/goroutines:goroutines") {
		t.Errorf("runtime snapshot missing:\n%s", diag.String())
	}
}

func TestWriteRuntimeSnapshotFormat(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeSnapshot(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("snapshot too short:\n%s", buf.String())
	}
	for _, line := range lines {
		var name string
		var value float64
		if _, err := fmt.Sscanf(line, "runtime %s %g", &name, &value); err != nil {
			t.Errorf("malformed snapshot line %q: %v", line, err)
		}
	}
}
