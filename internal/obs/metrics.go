// Metrics: a small lock-free counter/gauge/histogram registry aggregated
// across the experiment engine's worker pool. Registration takes a mutex
// (it happens a handful of times per process); every update afterwards is
// a single atomic op, so sixteen concurrent simulations hammering one
// registry contend only at the cache-line level. MetricsTracer adapts the
// registry to the Tracer interface so the same event stream that feeds
// trace sinks also feeds aggregate counters, one update per finished run.
package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric (accumulated
// seconds, joules, ...), updated with a CAS loop.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates x.
func (c *FloatCounter) Add(x float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-value-wins float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add shifts the gauge by x atomically (CAS loop) — for up/down values
// like active worker counts.
func (g *Gauge) Add(x float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into exponential buckets. It tracks
// count, sum and max exactly; quantiles are bucket-resolution
// approximations, which is plenty for job-latency style distributions.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64
	count  atomic.Int64
	sum    FloatCounter
	max    atomic.Uint64 // float bits; CAS-maintained
}

// DefaultLatencyBuckets spans 1 ms .. ~17 min in ×2 steps — wide enough
// for both a 100k-instruction smoke job and a paper-scale simulation.
func DefaultLatencyBuckets() []float64 {
	bounds := make([]float64, 20)
	b := 1e-3
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// DefaultSizeBuckets spans 64 B .. 1 GiB in ×4 steps — the boundaries for
// response-size style histograms.
func DefaultSizeBuckets() []float64 {
	bounds := make([]float64, 13)
	b := 64.0
	for i := range bounds {
		bounds[i] = b
		b *= 4
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
	for {
		old := h.max.Load()
		if x <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(x)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the average observation, or NaN with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return math.NaN()
	}
	return h.Sum() / float64(n)
}

// Quantile returns the upper bound of the bucket containing quantile q in
// [0,1] — an approximation with bucket resolution. NaN with no data.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Float64frombits(h.max.Load())
		}
	}
	return math.Float64frombits(h.max.Load())
}

// Max returns the largest observation (-Inf with no data).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Buckets returns a point-in-time copy of the histogram's upper bounds
// and per-bucket (non-cumulative) counts. counts has one more entry than
// bounds: the implicit +Inf overflow bucket. Because each bucket is read
// with its own atomic load, the copy is only approximately consistent
// under concurrent Observe — fine for dashboards and exposition, which is
// all it feeds.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Registry is a named collection of metrics. Get-or-create accessors are
// safe for concurrent use; two callers asking for the same name share the
// same metric. A name registered as one kind must not be re-requested as
// another (that is a programming error and panics).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

func lookup[T any](r *Registry, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind (%T)", name, m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	return lookup(r, name, func() *FloatCounter { return &FloatCounter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use with
// DefaultLatencyBuckets.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return newHistogram(DefaultLatencyBuckets()) })
}

// HistogramWith returns the named histogram, creating it on first use
// with the given fixed upper bounds (ascending). Boundaries are fixed at
// registration: a later caller asking for the same name gets the existing
// histogram whatever bounds it passes, so every accessor of a shared
// metric sees one consistent bucket layout.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	return lookup(r, name, func() *Histogram { return newHistogram(bounds) })
}

// Sample is one metric's point-in-time reading.
type Sample struct {
	Name  string
	Kind  string  // "counter", "float", "gauge", "histogram"
	Value float64 // count for counters, value for gauges, count for histograms
	// Histogram extras (zero otherwise; the quantiles are NaN with no
	// observations — callers rendering for humans should say "no data
	// yet" rather than print them).
	Sum, Mean, P50, P90, P99, Max float64
}

// Snapshot returns all metrics sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.metrics))
	for name, m := range r.metrics {
		s := Sample{Name: name}
		switch v := m.(type) {
		case *Counter:
			s.Kind, s.Value = "counter", float64(v.Value())
		case *FloatCounter:
			s.Kind, s.Value = "float", v.Value()
		case *Gauge:
			s.Kind, s.Value = "gauge", v.Value()
		case *Histogram:
			s.Kind, s.Value = "histogram", float64(v.Count())
			s.Sum, s.Mean = v.Sum(), v.Mean()
			s.P50, s.P90, s.P99 = v.Quantile(0.50), v.Quantile(0.90), v.Quantile(0.99)
			s.Max = v.Max()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteSummary prints the registry as an aligned table.
func (r *Registry) WriteSummary(w io.Writer) error {
	snap := r.Snapshot()
	if _, err := fmt.Fprintf(w, "%-28s %-9s %14s  %s\n", "metric", "kind", "value", "detail"); err != nil {
		return err
	}
	for _, s := range snap {
		detail := ""
		if s.Kind == "histogram" {
			// An empty histogram has NaN quantiles; say so instead of
			// printing fake zeros (or NaNs) a scraper might gate on.
			if s.Value > 0 {
				detail = fmt.Sprintf("mean %.3gs p50 %.3gs p90 %.3gs p99 %.3gs max %.3gs",
					s.Mean, s.P50, s.P90, s.P99, s.Max)
			} else {
				detail = "no data yet"
			}
		}
		if _, err := fmt.Fprintf(w, "%-28s %-9s %14.6g  %s\n", s.Name, s.Kind, s.Value, detail); err != nil {
			return err
		}
	}
	return nil
}

// promName rewrites a metric name into the Prometheus exposition
// alphabet [a-zA-Z0-9_:] (dots become underscores, anything else exotic
// likewise; a leading digit gains an underscore prefix; the empty name
// becomes "_" so the sample line still parses).
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	if name[0] >= '0' && name[0] <= '9' {
		b.WriteByte('_')
	}
	for _, c := range name {
		valid := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if valid {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a sample value for the exposition format. NaN (empty
// histogram quantiles) and ±Inf are legal Prometheus values.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Counters and float counters export as
// `counter`, gauges as `gauge`, and histograms as `summary` documents
// carrying the p50/p90/p99 quantiles the table view shows plus the exact
// _sum and _count — quantiles of an empty histogram export as NaN, the
// format's "no data" value. Metric names have their dots rewritten to
// underscores (serve.job_s → serve_job_s).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, s := range r.Snapshot() {
		name := promName(s.Name)
		var err error
		switch s.Kind {
		case "counter", "float":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(s.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Value))
		case "histogram":
			_, err = fmt.Fprintf(w, "# TYPE %s summary\n%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.9\"} %s\n%s{quantile=\"0.99\"} %s\n%s_sum %s\n%s_count %s\n",
				name,
				name, promFloat(s.P50),
				name, promFloat(s.P90),
				name, promFloat(s.P99),
				name, promFloat(s.Sum),
				name, promFloat(s.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an HTTP handler exposing the registry: a plain-text
// summary at "/" and "/metrics", and the Prometheus text exposition at
// "/metrics.prom". Any other path is 404.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	text := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteSummary(w) //dtmlint:allow errsink HTTP response write; delivery failures surface to the client, not the run
	}
	mux.HandleFunc("/{$}", text)
	mux.HandleFunc("/metrics", text)
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //dtmlint:allow errsink HTTP response write; delivery failures surface to the client, not the run
	})
	return mux
}

// Serve exposes the registry over HTTP on addr (e.g. "localhost:9090", or
// ":0" for an ephemeral port — the returned address is the actually-bound
// one, so callers can print a working URL either way). The server shuts
// down gracefully when ctx is canceled (in-flight requests finish, new
// connections are refused) or when the returned stop function is called,
// whichever comes first; stop is idempotent and reports the shutdown
// error, if any. Serve errors after shutdown are discarded.
func Serve(ctx context.Context, addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after stop
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close() //nolint:errcheck // Shutdown error is the one reported
				stopErr = err
			}
		})
		return stopErr
	}
	if ctx != nil {
		context.AfterFunc(ctx, func() { stop() }) //nolint:errcheck // nowhere to report; server is down either way
	}
	return ln.Addr().String(), stop, nil
}

// Metric names recorded by MetricsTracer and the experiment pool. Keeping
// them as constants makes the summary table and tests typo-proof.
const (
	MetricEvents         = "sim.events"              // counter: events emitted across all finished runs
	MetricThermalSteps   = "sim.thermal_steps"       // counter: thermal RC steps
	MetricDVSSwitches    = "sim.dvs_switches"        // counter: DVS transitions started
	MetricStallSeconds   = "sim.stall_s"             // float: simulated seconds stalled in DVS switches
	MetricTriggerSeconds = "sim.trigger_residency_s" // float: simulated seconds with true temp above trigger
	MetricClockStopSecs  = "sim.clockstop_s"         // float: simulated seconds with the clock stopped
	MetricEmergencySecs  = "sim.emergency_s"         // float: simulated seconds above the emergency threshold
	MetricCrossings      = "sim.trigger_crossings"   // counter: upward trigger crossings
	MetricRuns           = "sim.runs"                // counter: simulation runs traced to their end
	MetricInstructions   = "sim.instructions"        // counter: instructions committed inside measurement windows
	MetricPoolJobs       = "pool.jobs_done"          // counter: pool jobs completed
	MetricPoolJobSeconds = "pool.job_s"              // histogram: per-job wall-clock latency
	MetricPoolActive     = "pool.active_workers"     // gauge: workers currently running a job
	MetricPoolCoreSteps  = "pool.core_steps"         // counter: thermal steps advanced per cpu core, a shared step once

	// Job-server (internal/serve) metrics. serve.job_s measures
	// submission-to-completion latency as the server saw it, including
	// queueing; cache hits are counted but observe no latency (they
	// complete at submission).
	MetricServeJobs        = "serve.jobs_done"     // counter: jobs completed (simulated or cache-served)
	MetricServeFailed      = "serve.jobs_failed"   // counter: jobs that ended in error
	MetricServeCanceled    = "serve.jobs_canceled" // counter: queued jobs canceled by shutdown
	MetricServeRejected    = "serve.rejected"      // counter: submissions shed with 429 (queue full)
	MetricServeDeduped     = "serve.deduped"       // counter: submissions coalesced onto an identical live job
	MetricServeCacheHits   = "serve.cache_hits"    // counter: submissions served from the on-disk result cache
	MetricServeCacheMisses = "serve.cache_misses"  // counter: submissions that required a simulation
	MetricServeQueueDepth  = "serve.queue_depth"   // gauge: jobs queued but not yet running
	MetricServeActive      = "serve.active_jobs"   // gauge: jobs currently simulating
	MetricServeJobSeconds  = "serve.job_s"         // histogram: submission-to-completion latency

	// Serving-observability histograms (fixed boundaries; see DESIGN.md
	// "Serving observability"). All are recorded whether or not span
	// tracing is enabled — each costs a handful of atomic ops per job or
	// request, not a per-event copy.
	MetricServeQueueWait = "serve.queue_wait_s"   // histogram: submit→worker-pickup wait
	MetricServeRunSecs   = "serve.run_s"          // histogram: worker-pickup→simulation-done
	MetricServeTraceTTFB = "serve.trace_ttfb_s"   // histogram: trace GET→first streamed byte
	MetricServeRespBytes = "serve.response_bytes" // histogram: HTTP response body sizes
)

// MetricsTracer adapts a Registry to the Tracer interface: it folds the
// event stream of one run into its own Tally and adds that tally to the
// shared aggregate counters once, in End, so Emit touches no registry
// metric. Create one per run (Begin resets the tally to the run's
// thresholds); any number of instances may share a Registry concurrently.
type MetricsTracer struct {
	tally Tally

	events, steps, dvs, crossings, runs *Counter
	stall, trig, clock, emerg           *FloatCounter
}

// NewMetricsTracer returns a tracer feeding reg.
func NewMetricsTracer(reg *Registry) *MetricsTracer {
	return &MetricsTracer{
		events:    reg.Counter(MetricEvents),
		steps:     reg.Counter(MetricThermalSteps),
		dvs:       reg.Counter(MetricDVSSwitches),
		crossings: reg.Counter(MetricCrossings),
		runs:      reg.Counter(MetricRuns),
		stall:     reg.FloatCounter(MetricStallSeconds),
		trig:      reg.FloatCounter(MetricTriggerSeconds),
		clock:     reg.FloatCounter(MetricClockStopSecs),
		emerg:     reg.FloatCounter(MetricEmergencySecs),
	}
}

// Begin starts a fresh tally at the run's thresholds.
func (m *MetricsTracer) Begin(meta Meta) {
	m.tally = Tally{Trigger: meta.Trigger, Emergency: meta.Emergency}
}

// Emit folds one event into the run's tally.
func (m *MetricsTracer) Emit(ev *Event) { m.tally.Add(ev) }

// End publishes the run's tally to the registry.
func (m *MetricsTracer) End() {
	t := &m.tally
	m.runs.Inc()
	m.events.Add(t.Events)
	m.steps.Add(t.Steps)
	m.dvs.Add(t.DVSSwitches)
	m.crossings.Add(t.TriggerCrossings)
	m.stall.Add(t.Stalled)
	m.trig.Add(t.AboveTrigger)
	m.clock.Add(t.ClockStopped)
	m.emerg.Add(t.AboveEmergency)
}
