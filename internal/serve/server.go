// Package serve is the simulation job server behind cmd/dtmserve: an
// HTTP/JSON API that accepts DTM simulation configs, executes them on a
// bounded worker pool layered over the experiment engine, and answers
// repeated configurations from a persistent content-addressed result
// cache instead of re-simulating.
//
// Endpoints:
//
//	POST /v1/jobs              submit a JobConfig; 202 queued, 200 dedup/cache-served, 400 invalid, 429 full
//	GET  /v1/jobs              list jobs in submission order
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/result  the measurement (409 until done, 404 unknown)
//	GET  /v1/jobs/{id}/trace   the run's JSONL event stream (jobs submitted with "trace": true)
//	GET  /healthz              liveness + occupancy/uptime (503 while draining)
//	GET  /metrics              the obs registry (text; /metrics.prom for Prometheus)
//
// Backpressure is explicit: the submission queue is bounded, and a full
// queue sheds load with 429 plus a Retry-After hint rather than growing
// without bound. Shutdown is graceful: in-flight simulations drain to
// completion, queued-but-unstarted jobs are reported as canceled, and the
// cache directory stays consistent (atomic writes only), so a restarted
// server answers the same configs from cache.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// Job states reported by the status endpoints.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled" // queued at shutdown, never started
)

// Config assembles a server.
type Config struct {
	// Workers bounds concurrent simulations. Default: 2.
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs; a submission beyond it
	// is shed with 429. Default: 64.
	QueueDepth int
	// CacheDir is the persistent result cache directory (required).
	CacheDir string
	// MaxInstructions caps a single job's measured window. Default: 100M.
	MaxInstructions uint64
	// RetryAfter is the backoff hint sent with 429 responses. Default: 1s.
	RetryAfter time.Duration
	// Metrics receives serve.* and the underlying pool/sim counters.
	// Default: a fresh registry (exposed at /metrics either way).
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured request/job logs.
	Logger *slog.Logger

	// gate, when non-nil, is received from once per dequeued job, after it
	// turns "running" and before it executes. In-package tests use it to
	// hold a worker at a deterministic point (full queue, mid-drain); it is
	// unsettable from outside the package and nil in production.
	gate chan struct{}
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 100_000_000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// job is one tracked submission. Mutable fields are guarded by Server.mu;
// done is closed exactly once when the job reaches a terminal state.
type job struct {
	id  string
	key string
	cfg JobConfig

	state       string                  // guarded-by: Server.mu
	errMsg      string                  // guarded-by: Server.mu
	cached      bool                    // guarded-by: Server.mu  (answered from the persistent cache)
	measurement experiments.Measurement // guarded-by: Server.mu
	submitted   time.Time               // guarded-by: Server.mu
	started     time.Time               // guarded-by: Server.mu
	finished    time.Time               // guarded-by: Server.mu
	done        chan struct{}
}

// Server executes simulation jobs. Construct with New (which starts the
// worker pool), serve Handler over HTTP, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *Cache
	log   *slog.Logger

	// now is the clock; tests pin it for byte-stable golden responses.
	// Job execution itself never reads it (simulated time is the
	// simulator's own), so a frozen clock only freezes bookkeeping.
	now func() time.Time

	// sinceStart is the uptime source: a monotonic elapsed-time reading
	// anchored at construction, so NTP/wall-clock steps cannot make
	// /healthz uptime jump or run backwards. Tests pin it alongside now.
	sinceStart func() time.Duration

	// baseCtx governs job execution. Graceful Shutdown does NOT cancel it
	// (in-flight jobs drain to completion); Close does.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job // guarded-by: mu
	order    []string        // guarded-by: mu
	byKey    map[string]*job // guarded-by: mu
	seq      int             // guarded-by: mu
	draining bool            // guarded-by: mu

	queue chan *job
	wg    sync.WaitGroup

	runnersMu sync.Mutex
	runners   map[string]*experiments.Runner // guarded-by: runnersMu

	queueDepth *obs.Gauge
	activeJobs *obs.Gauge
	queueWait  *obs.Histogram // serve.queue_wait_s
	runSecs    *obs.Histogram // serve.run_s
	traceTTFB  *obs.Histogram // serve.trace_ttfb_s
	respBytes  *obs.Histogram // serve.response_bytes
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	baseCtx, cancelAll := context.WithCancel(context.Background())
	start := time.Now()
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Metrics,
		baseCtx:    baseCtx,
		cancelAll:  cancelAll,
		cache:      cache,
		log:        cfg.Logger,
		now:        time.Now,
		sinceStart: func() time.Duration { return time.Since(start) },
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
		runners:    make(map[string]*experiments.Runner),
		queueDepth: cfg.Metrics.Gauge(obs.MetricServeQueueDepth),
		activeJobs: cfg.Metrics.Gauge(obs.MetricServeActive),
		queueWait:  cfg.Metrics.HistogramWith(obs.MetricServeQueueWait, obs.DefaultLatencyBuckets()),
		runSecs:    cfg.Metrics.HistogramWith(obs.MetricServeRunSecs, obs.DefaultLatencyBuckets()),
		traceTTFB:  cfg.Metrics.HistogramWith(obs.MetricServeTraceTTFB, obs.DefaultLatencyBuckets()),
		respBytes:  cfg.Metrics.HistogramWith(obs.MetricServeRespBytes, obs.DefaultSizeBuckets()),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Cache returns the persistent result cache.
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown drains the server: no new submissions are accepted (503),
// in-flight simulations run to completion, and queued-but-unstarted jobs
// are marked canceled. It returns once the pool has drained or ctx
// expires, and is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		// Cancel everything still queued. Workers racing us on the
		// channel simply win those jobs and run them — they were about to
		// start, which is the "in-flight" side of the drain contract.
		canceled := s.reg.Counter(obs.MetricServeCanceled)
	drain:
		for {
			select {
			case j := <-s.queue:
				s.queueDepth.Add(-1)
				j.state = StateCanceled
				j.errMsg = "server shutting down before job started"
				j.finished = s.now()
				canceled.Inc()
				close(j.done)
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Close is the hard stop: it cancels in-flight simulations (they report
// as failed with a context error) and then drains like Shutdown. For the
// graceful path call Shutdown first; Close is the second-Ctrl-C escalation.
func (s *Server) Close() error {
	s.cancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// worker pulls queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.Add(-1)
		s.mu.Lock()
		// A job can land here after Shutdown flipped draining but before
		// the drain loop swallowed it; honor the cancel contract.
		if s.draining {
			j.state = StateCanceled
			j.errMsg = "server shutting down before job started"
			j.finished = s.now()
			s.mu.Unlock()
			s.reg.Counter(obs.MetricServeCanceled).Inc()
			close(j.done)
			continue
		}
		j.state = StateRunning
		j.started = s.now()
		s.mu.Unlock()
		s.queueWait.Observe(j.started.Sub(j.submitted).Seconds()) //dtmlint:allow lockcheck this worker just wrote started; submitted is frozen at enqueue
		if s.cfg.gate != nil {
			<-s.cfg.gate
		}
		s.activeJobs.Add(1)
		s.execute(j)
		s.activeJobs.Add(-1)
	}
}

// runnerFor returns the experiment runner owning the baseline singleflight
// cache for one (resolved config, instruction budget) family, creating it
// on first use. cfg must already have its tracer cleared. The runner has
// no Logger: the server logs every job itself ("job done", "job failed").
func (s *Server) runnerFor(cfg core.Config, insts uint64) (*experiments.Runner, error) {
	key, err := obs.HashJSON(struct {
		Config       core.Config `json:"config"`
		Instructions uint64      `json:"instructions"`
	}{cfg, insts})
	if err != nil {
		return nil, err
	}
	s.runnersMu.Lock()
	defer s.runnersMu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r, nil
	}
	r, err := experiments.NewRunner(experiments.Options{
		Instructions: insts,
		Benchmarks:   trace.Benchmarks(),
		Config:       cfg,
		Metrics:      s.reg,
		Workers:      1, // concurrency lives in the serve pool, not per-runner
	})
	if err != nil {
		return nil, err
	}
	s.runners[key] = r
	return r, nil
}

// execute runs one job to a terminal state and persists its artifacts:
// simulate covers the simulation (plus the trace artifact, which is the
// run's output), persist the cache entry write. Both happen before the
// job is visible as done — a crash between them leaves only a
// recomputable miss, never a dangling done job.
func (s *Server) execute(j *job) {
	m, err := s.simulate(j)
	s.runSecs.Observe(s.now().Sub(j.started).Seconds()) //dtmlint:allow lockcheck started is written once by this worker before execute and stable for the run
	if err == nil {
		err = s.persist(j, m)
	}
	s.mu.Lock()
	j.finished = s.now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.measurement = m
	}
	latency := j.finished.Sub(j.submitted).Seconds()
	s.mu.Unlock()

	if err != nil {
		s.reg.Counter(obs.MetricServeFailed).Inc()
		if s.log != nil {
			s.log.Error("job failed", "id", j.id, "key", j.key, "err", err)
		}
	} else {
		s.reg.Counter(obs.MetricServeJobs).Inc()
		s.reg.Histogram(obs.MetricServeJobSeconds).Observe(latency)
		if s.log != nil {
			s.log.Debug("job done", "id", j.id, "key", j.key,
				"bench", j.cfg.Benchmark, "policy", j.cfg.Policy)
		}
	}
	close(j.done)
}

// simulate executes the job's simulation, including writing the trace
// artifact into the cache when requested (the trace is the run's output
// stream, so it belongs to the run stage; the measurement cache entry is
// execute's persist stage).
func (s *Server) simulate(j *job) (experiments.Measurement, error) {
	cfg, prof, factory, err := j.cfg.Resolve()
	if err != nil {
		return experiments.Measurement{}, err
	}
	runner, err := s.runnerFor(cfg, j.cfg.Instructions)
	if err != nil {
		return experiments.Measurement{}, err
	}

	var traceFile *os.File
	var sink *obs.JSONL
	if j.cfg.Trace {
		if traceFile, err = os.CreateTemp(s.cache.Dir(), "tmp-trace-*"); err != nil {
			return experiments.Measurement{}, err
		}
		defer os.Remove(traceFile.Name()) // no-op once renamed into place
		sink = obs.NewJSONL(traceFile)
		cfg.Tracer = sink
	}

	ms, err := runner.RunJobs(s.baseCtx, []experiments.Job{{Config: cfg, Profile: prof, Factory: factory}})
	if sink != nil {
		if serr := sink.Err(); err == nil && serr != nil {
			err = fmt.Errorf("trace sink: %w", serr)
		}
		if cerr := traceFile.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace sink: %w", cerr)
		}
	}
	if err != nil {
		return experiments.Measurement{}, err
	}
	if sink != nil {
		if err := s.cache.PutTraceFile(j.key, traceFile.Name()); err != nil {
			return experiments.Measurement{}, err
		}
	}
	return ms[0], nil
}

func (s *Server) persist(j *job, m experiments.Measurement) error {
	return s.cache.Put(Entry{
		Kind:        KindCacheEntry,
		Schema:      CacheSchemaVersion,
		Key:         j.key,
		Job:         j.cfg,
		Measurement: m,
	})
}

// --- HTTP layer ---

// apiError is the structured error body: {"error":{"code":...,"message":...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// submitResponse answers POST /v1/jobs.
type submitResponse struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Deduped bool   `json:"deduped"`
}

// statusResponse answers GET /v1/jobs/{id}.
type statusResponse struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	State     string `json:"state"`
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	Cached    bool   `json:"cached"`
	Trace     bool   `json:"trace"`
	Error     string `json:"error,omitempty"`
	Submitted string `json:"submitted"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
}

// resultResponse answers GET /v1/jobs/{id}/result.
type resultResponse struct {
	ID          string                  `json:"id"`
	Key         string                  `json:"key"`
	Cached      bool                    `json:"cached"`
	Measurement experiments.Measurement `json:"measurement"`
}

type listResponse struct {
	Jobs []statusResponse `json:"jobs"`
}

type healthResponse struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Workers  int     `json:"workers"`
	QueueCap int     `json:"queue_capacity"`
	Queued   int     `json:"queued"`
	Active   int     `json:"active"`
	Jobs     int     `json:"jobs"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write; delivery failures are the client's
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: apiError{Code: code, Message: message}})
}

// Handler returns the server's HTTP API. Every response passes through a
// byte-counting writer feeding the serve.response_bytes histogram.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /metrics.prom", s.reg.Handler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		mux.ServeHTTP(cw, r)
		s.respBytes.Observe(float64(cw.n))
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(b)
	cw.n += int64(n)
	return n, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	data, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	jc, err := ParseJobConfig(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_config", err.Error())
		return
	}
	if jc.Instructions > s.cfg.MaxInstructions {
		writeError(w, http.StatusBadRequest, "bad_config",
			fmt.Sprintf("instructions %d above this server's cap %d", jc.Instructions, s.cfg.MaxInstructions))
		return
	}
	key, err := jc.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_config", err.Error())
		return
	}

	resp, status, apiErr := s.submit(jc, key)
	if apiErr != nil {
		if apiErr.Code == "queue_full" {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		}
		writeError(w, status, apiErr.Code, apiErr.Message)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+resp.ID)
	writeJSON(w, status, resp)
}

// retryAfterSeconds renders a backoff as a Retry-After value: whole
// seconds rounded up, at least 1, since "0" tells a client to retry at
// once.
func retryAfterSeconds(d time.Duration) string {
	secs := (d + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(int64(secs), 10)
}

// submit registers one submission: dedup against live jobs, then the
// persistent cache, then the bounded queue. Returns the response, HTTP
// status, and a non-nil apiError when the submission was not accepted.
func (s *Server) submit(jc JobConfig, key string) (submitResponse, int, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return submitResponse{}, http.StatusServiceUnavailable,
			&apiError{Code: "shutting_down", Message: "server is draining; resubmit elsewhere or later"}
	}
	if prev, ok := s.byKey[key]; ok && prev.state != StateFailed && prev.state != StateCanceled {
		// Identical work is already queued, running, or done: singleflight
		// the submission onto it.
		s.reg.Counter(obs.MetricServeDeduped).Inc()
		return submitResponse{ID: prev.id, Key: key, State: prev.state,
			Cached: prev.cached, Deduped: true}, http.StatusOK, nil
	}
	if entry, ok := s.cache.Get(key); ok {
		j := s.newJobLocked(jc, key)
		j.state = StateDone
		j.cached = true
		j.measurement = entry.Measurement
		j.finished = j.submitted
		close(j.done)
		s.reg.Counter(obs.MetricServeCacheHits).Inc()
		return submitResponse{ID: j.id, Key: key, State: StateDone, Cached: true}, http.StatusOK, nil
	}
	j := s.newJobLocked(jc, key)
	select {
	case s.queue <- j:
		s.queueDepth.Add(1)
		s.reg.Counter(obs.MetricServeCacheMisses).Inc()
		return submitResponse{ID: j.id, Key: key, State: StateQueued}, http.StatusAccepted, nil
	default:
		// Shed load instead of queueing without bound; unregister the
		// stillborn job.
		s.forgetLocked(j)
		s.reg.Counter(obs.MetricServeRejected).Inc()
		return submitResponse{}, http.StatusTooManyRequests,
			&apiError{Code: "queue_full", Message: fmt.Sprintf("queue of %d jobs is full; retry later", s.cfg.QueueDepth)}
	}
}

// newJobLocked allocates and registers a job; callers hold s.mu.
func (s *Server) newJobLocked(jc JobConfig, key string) *job {
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		key:       key,
		cfg:       jc,
		state:     StateQueued,
		submitted: s.now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byKey[key] = j
	return j
}

// forgetLocked removes a job registered in the same critical section
// (queue-full rollback); callers hold s.mu.
func (s *Server) forgetLocked(j *job) {
	delete(s.jobs, j.id)
	delete(s.byKey, j.key)
	s.order = s.order[:len(s.order)-1]
	s.seq--
}

func (s *Server) statusLocked(j *job) statusResponse {
	resp := statusResponse{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Benchmark: j.cfg.Benchmark,
		Policy:    j.cfg.Policy,
		Cached:    j.cached,
		Trace:     j.cfg.Trace,
		Error:     j.errMsg,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		resp.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		resp.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return resp
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	resp := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := listResponse{Jobs: make([]statusResponse, 0, len(s.order))}
	for _, id := range s.order {
		resp.Jobs = append(resp.Jobs, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state, errMsg := j.state, j.errMsg
	resp := resultResponse{ID: j.id, Key: j.key, Cached: j.cached, Measurement: j.measurement}
	s.mu.Unlock()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, resp)
	case StateFailed:
		writeError(w, http.StatusConflict, "job_failed", errMsg)
	case StateCanceled:
		writeError(w, http.StatusConflict, "job_canceled", errMsg)
	default:
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("job %s is %s; poll GET /v1/jobs/%s", j.id, state, j.id))
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t0 := s.now()
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state := j.state
	wantTrace := j.cfg.Trace
	s.mu.Unlock()
	if !wantTrace {
		writeError(w, http.StatusNotFound, "no_trace",
			fmt.Sprintf("job %s was submitted without \"trace\": true", j.id))
		return
	}
	if state != StateDone {
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("job %s is %s; the trace streams once it is done", j.id, state))
		return
	}
	f, err := os.Open(s.cache.TracePath(j.key))
	if err != nil {
		writeError(w, http.StatusNotFound, "no_trace", "trace artifact missing from cache")
		return
	}
	defer f.Close() //dtmlint:allow errsink read-only artifact handle; a close error cannot lose data
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := &firstByteWriter{w: w, observe: func() {
		s.traceTTFB.Observe(s.now().Sub(t0).Seconds())
	}}
	_, _ = io.Copy(fw, f) // response stream; delivery failures are the client's
}

// firstByteWriter calls observe once, just before the first byte of the
// body is written — the serve.trace_ttfb_s sample point.
type firstByteWriter struct {
	w       io.Writer
	observe func()
}

func (fw *firstByteWriter) Write(b []byte) (int, error) {
	if fw.observe != nil && len(b) > 0 {
		fw.observe()
		fw.observe = nil
	}
	return fw.w.Write(b)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Monotonic by construction: sinceStart reads elapsed time, not the
	// wall clock, so a stepped system clock cannot move uptime backwards.
	uptime := s.sinceStart().Seconds()
	s.mu.Lock()
	resp := healthResponse{
		Status:   "ok",
		UptimeS:  uptime,
		Workers:  s.cfg.Workers,
		QueueCap: s.cfg.QueueDepth,
		Jobs:     len(s.jobs),
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			resp.Queued++
		case StateRunning:
			resp.Active++
		}
	}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// WaitJob blocks until the job reaches a terminal state or ctx expires;
// it lets in-process callers such as tests wait without polling their
// own server over HTTP.
func (s *Server) WaitJob(ctx context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no job %q", id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
