package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramWithBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("sz", DefaultSizeBuckets())
	if again := r.HistogramWith("sz", []float64{1, 2}); again != h {
		t.Fatalf("HistogramWith did not return the existing histogram")
	}
	if r.Histogram("sz") != h {
		t.Fatalf("Histogram lookup does not share HistogramWith storage")
	}
	h.Observe(100)  // falls in (64, 256]
	h.Observe(1e12) // beyond the last bound: +Inf bucket
	bounds := h.bounds
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	if len(counts) != len(bounds)+1 {
		t.Fatalf("got %d counts for %d bounds, want bounds+1", len(counts), len(bounds))
	}
	var total int64
	hits := map[int]int64{}
	for i, c := range counts {
		total += c
		if c != 0 {
			hits[i] = c
		}
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, histogram Count is %d", total, h.Count())
	}
	if hits[len(counts)-1] != 1 {
		t.Errorf("+Inf bucket should hold the out-of-range sample, got %v", hits)
	}
	if len(hits) != 2 {
		t.Errorf("expected exactly two occupied buckets, got %v", hits)
	}
}

func TestDefaultSizeBuckets(t *testing.T) {
	b := DefaultSizeBuckets()
	if b[0] != 64 {
		t.Errorf("first size bound = %g, want 64", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*4 {
			t.Errorf("size bounds must step x4: b[%d]=%g after %g", i, b[i], b[i-1])
		}
	}
}

// lintPrometheus is a minimal exposition-format (0.0.4) lint: every
// non-comment line must be `name{labels} value` or `name value`, every
// metric must be preceded by matching HELP/TYPE comments, and names must
// match the Prometheus grammar. It returns the parsed samples keyed by
// series, or the first violation. The fuzz target shares it with the
// golden tests, so it must stay test-framework-free.
func lintPrometheus(text string) (map[string]float64, error) {
	values := map[string]float64{}
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var name, rest string
			if _, err := fmt.Sscanf(line, "# TYPE %s %s", &name, &rest); err == nil {
				switch rest {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return nil, fmt.Errorf("invalid TYPE %q in %q", rest, line)
				}
				typed[name] = rest
				continue
			}
			if !strings.HasPrefix(line, "# HELP ") {
				return nil, fmt.Errorf("unrecognized comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("sample line %q has no value", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: bad value: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("unterminated label set in %q", line)
			}
			name = series[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				return nil, fmt.Errorf("sample %q has no preceding TYPE comment", line)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("sample %q has an empty metric name", line)
		}
		for i, c := range name {
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !ok {
				return nil, fmt.Errorf("metric name %q violates the Prometheus grammar", name)
			}
		}
		values[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: %v", err)
	}
	return values, nil
}

// parsePrometheus wraps lintPrometheus for the golden tests.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	values, err := lintPrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	return values
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.jobs_total").Add(3)
	r.FloatCounter("sim.seconds").Add(1.25)
	r.Gauge("serve.queue_depth").Set(2)
	h := r.Histogram("serve.run_s")
	for _, v := range []float64{0.001, 0.002, 0.004, 0.008} {
		h.Observe(v)
	}
	r.Histogram("serve.queue_wait_s") // empty: quantiles must be NaN, not 0

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	values := parsePrometheus(t, text)

	if got := values["serve_jobs_total"]; got != 3 {
		t.Errorf("serve_jobs_total = %g, want 3", got)
	}
	if got := values["sim_seconds"]; got != 1.25 {
		t.Errorf("sim_seconds = %g, want 1.25", got)
	}
	if got := values["serve_queue_depth"]; got != 2 {
		t.Errorf("serve_queue_depth = %g, want 2", got)
	}
	if got := values["serve_run_s_count"]; got != 4 {
		t.Errorf("serve_run_s_count = %g, want 4", got)
	}
	if got := values[`serve_run_s{quantile="0.99"}`]; got != 0.008 {
		t.Errorf("run p99 = %g, want 0.008", got)
	}
	if got := values[`serve_run_s{quantile="0.5"}`]; got != 0.004 {
		t.Errorf("run p50 = %g, want 0.004 (bucket upper bound at rank 2)", got)
	}
	empty, ok := values[`serve_queue_wait_s{quantile="0.99"}`]
	if !ok || !math.IsNaN(empty) {
		t.Errorf("empty histogram p99 = %v (present=%v), want NaN", empty, ok)
	}
	if got := values["serve_queue_wait_s_count"]; got != 0 {
		t.Errorf("empty histogram count = %g, want 0", got)
	}
	for _, want := range []string{
		"# TYPE serve_jobs_total counter",
		"# TYPE serve_queue_depth gauge",
		"# TYPE serve_run_s summary",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"serve.jobs_per_sec": "serve_jobs_per_sec",
		"9lives":             "_9lives",
		"a-b c":              "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzPromExposition: whatever the registry is asked to hold — including
// names outside the Prometheus alphabet, leading digits, or nothing at
// all — WritePrometheus must emit text the 0.0.4 grammar accepts. The
// seeds are registry names the simulator and the experiment pool publish
// plus the known promName edge cases.
func FuzzPromExposition(f *testing.F) {
	for _, seed := range []string{
		MetricRuns,
		MetricInstructions,
		MetricStallSeconds,
		MetricPoolJobs,
		MetricPoolActive,
		MetricPoolCoreSteps,
		MetricPoolCacheHits,
		MetricTriggerSeconds,
		MetricPoolJobSeconds,
		MetricStagePrefix + "thermal.step_frac",
		"9lives", // leading digit must gain an underscore prefix
		"",
		"a-b c",
		"temp.°C",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		r := NewRegistry()
		r.Counter(name).Inc()
		r.Gauge(name + ".gauge").Set(1.5)
		r.Histogram(name + ".hist").Observe(0.004)
		r.Histogram(name + ".empty") // NaN quantiles must still parse
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus(%q): %v", name, err)
		}
		if _, err := lintPrometheus(buf.String()); err != nil {
			t.Fatalf("exposition for %q violates the 0.0.4 grammar: %v\n%s", name, err, buf.String())
		}
	})
}

func TestMetricsPromEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics.prom")
	if err != nil {
		t.Fatalf("GET /metrics.prom: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if got := parsePrometheus(t, string(body))["hits"]; got != 1 {
		t.Errorf("hits = %g, want 1", got)
	}
}

func TestWriteSummaryNoData(t *testing.T) {
	r := NewRegistry()
	r.Histogram("serve.queue_wait_s")
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	if !strings.Contains(buf.String(), "no data yet") {
		t.Errorf("empty histogram summary should say \"no data yet\", got:\n%s", buf.String())
	}
	r.Histogram("serve.queue_wait_s").Observe(0.004)
	buf.Reset()
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "no data yet") || !strings.Contains(out, "p99") {
		t.Errorf("non-empty histogram summary should show quantiles, got:\n%s", out)
	}
}
