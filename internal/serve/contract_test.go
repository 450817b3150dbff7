// The API contract, pinned byte-for-byte: every endpoint and every error
// path answers with a golden response. The server under test runs one
// worker held at a test gate, a frozen stepping clock, and sequential job
// ids, so status bodies — timestamps included — are fully deterministic.
// Regenerate with: go test ./internal/serve -run TestContract -update
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden API responses")

// testClock returns a now() whose calls step deterministically: the n-th
// call yields 2026-01-02T03:04:05Z + n seconds. Job bookkeeping is the
// only consumer, so golden timestamps encode the call order the contract
// script forces.
func testClock() func() time.Time {
	var mu sync.Mutex
	n := 0
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

// testUptime returns a sinceStart whose calls step deterministically: the
// n-th call yields n seconds. Uptime is monotonic by construction (it is
// an elapsed-time reading), and the stepping fake preserves that while
// keeping golden bodies byte-stable.
func testUptime() func() time.Duration {
	var mu sync.Mutex
	n := 0
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		n++
		return time.Duration(n) * time.Second
	}
}

// contractServer builds the deterministic server the contract script runs
// against: 1 worker, queue depth 1, gated, frozen clock.
func contractServer(t *testing.T) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	srv, err := New(Config{
		Workers:         1,
		QueueDepth:      1,
		CacheDir:        t.TempDir(),
		MaxInstructions: 1_000_000,
		RetryAfter:      7 * time.Second,
		gate:            gate,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.now = testClock()
	// Pin the uptime source to its own stepping fake so /healthz reports
	// deterministic uptimes.
	srv.sinceStart = testUptime()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, ts, gate
}

// checkGolden compares an HTTP response (status + body) against
// testdata/<name>.golden, rewriting it under -update.
func checkGolden(t *testing.T, name string, resp *http.Response, body []byte) {
	t.Helper()
	got := fmt.Sprintf("HTTP %d\n%s", resp.StatusCode, body)
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: response drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func do(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data.Bytes()
}

// pollState spins until the job reports the wanted state (status reads do
// not consume the test clock, so polling keeps goldens deterministic).
func pollState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := do(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		var st statusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

func TestContract(t *testing.T) {
	srv, ts, gate := contractServer(t)
	base := ts.URL

	// --- error paths that must reject without enqueueing work ---
	resp, body := do(t, http.MethodPost, base+"/v1/jobs", "{not json")
	checkGolden(t, "submit_malformed", resp, body)

	resp, body = do(t, http.MethodPost, base+"/v1/jobs",
		`{"benchmark": "gzip", "policy": "hyb", "instructons": 5}`)
	checkGolden(t, "submit_unknown_field", resp, body)

	resp, body = do(t, http.MethodPost, base+"/v1/jobs",
		`{"benchmark": "quake3", "policy": "hyb"}`)
	checkGolden(t, "submit_bad_benchmark", resp, body)

	resp, body = do(t, http.MethodPost, base+"/v1/jobs",
		`{"benchmark": "gzip", "policy": "entropy-coding"}`)
	checkGolden(t, "submit_bad_policy", resp, body)

	resp, body = do(t, http.MethodPost, base+"/v1/jobs",
		`{"benchmark": "gzip", "policy": "hyb", "instructions": 2000000, "scale": "smoke"}`)
	checkGolden(t, "submit_above_cap", resp, body)

	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-999999", "")
	checkGolden(t, "status_unknown_job", resp, body)

	// --- the happy path: accept, run, queue, shed, dedupe ---
	jobA := `{"benchmark": "art", "policy": "hyb", "instructions": 100000, "scale": "smoke", "trace": true}`
	resp, body = do(t, http.MethodPost, base+"/v1/jobs", jobA)
	checkGolden(t, "submit_accepted", resp, body)
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/j-000001" {
		t.Errorf("Location = %q, want /v1/jobs/j-000001", loc)
	}
	// The single worker picks A up and holds at the gate: state "running".
	pollState(t, base, "j-000001", StateRunning)
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000001", "")
	checkGolden(t, "status_running", resp, body)

	// B fills the depth-1 queue.
	jobB := `{"benchmark": "gcc", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`
	resp, body = do(t, http.MethodPost, base+"/v1/jobs", jobB)
	checkGolden(t, "submit_queued", resp, body)
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000002", "")
	checkGolden(t, "status_queued", resp, body)
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000002/result", "")
	checkGolden(t, "result_not_finished", resp, body)
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000002/trace", "")
	checkGolden(t, "trace_not_requested", resp, body)

	// C is shed: queue full, Retry-After carries the configured hint.
	jobC := `{"benchmark": "gzip", "policy": "fg", "instructions": 100000, "scale": "smoke"}`
	resp, body = do(t, http.MethodPost, base+"/v1/jobs", jobC)
	checkGolden(t, "submit_queue_full", resp, body)
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", ra)
	}

	// Resubmitting A's exact config coalesces onto the running job.
	resp, body = do(t, http.MethodPost, base+"/v1/jobs", jobA)
	checkGolden(t, "submit_deduped_running", resp, body)

	// The trace of a running job is not streamable yet.
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000001/trace", "")
	checkGolden(t, "trace_not_finished", resp, body)

	// --- release the gate and let A and B run to completion ---
	gate <- struct{}{}
	gate <- struct{}{}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.waitJob(waitCtx, "j-000001"); err != nil {
		t.Fatalf("waitJob A: %v", err)
	}
	if err := srv.waitJob(waitCtx, "j-000002"); err != nil {
		t.Fatalf("waitJob B: %v", err)
	}

	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000001", "")
	checkGolden(t, "status_done", resp, body)
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000001/result", "")
	checkGolden(t, "result_done", resp, body)

	// Resubmitting A once done still dedupes onto the completed job.
	resp, body = do(t, http.MethodPost, base+"/v1/jobs", jobA)
	checkGolden(t, "submit_deduped_done", resp, body)

	// The trace streams as newline-delimited JSON, byte-identical to the
	// cache artifact it was persisted as.
	resp, body = do(t, http.MethodGet, base+"/v1/jobs/j-000001/trace", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(body) == 0 {
		t.Fatalf("trace stream is empty")
	}
	for i, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace line %d is not JSON: %q", i+1, line)
		}
	}
	keyA := submittedKey(t, base, "j-000001")
	artifact, err := os.ReadFile(srv.cache.TracePath(keyA))
	if err != nil {
		t.Fatalf("trace artifact: %v", err)
	}
	if !bytes.Equal(body, artifact) {
		t.Errorf("streamed trace differs from cache artifact (%d vs %d bytes)", len(body), len(artifact))
	}

	// --- the panoramic endpoints ---
	resp, body = do(t, http.MethodGet, base+"/v1/jobs", "")
	checkGolden(t, "list", resp, body)
	resp, body = do(t, http.MethodGet, base+"/healthz", "")
	checkGolden(t, "health", resp, body)

	// /metrics serves the registry; counters vary by scheduling, so assert
	// presence, not bytes.
	resp, body = do(t, http.MethodGet, base+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, metric := range []string{"serve.jobs_done", "serve.deduped", "serve.rejected"} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Errorf("/metrics missing %s:\n%s", metric, body)
		}
	}
}

// TestHealthUptimeMonotonic pins the NTP-step contract: uptime_s derives
// from the monotonic elapsed-time source, not wall-clock subtraction, so
// two scrapes straddling a backwards wall-clock step still report
// strictly increasing uptime.
func TestHealthUptimeMonotonic(t *testing.T) {
	srv, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The wall clock steps one hour BACKWARDS per read — the NTP scenario
	// that used to drive now()-started uptime negative.
	var mu sync.Mutex
	n := 0
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	srv.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(-time.Duration(n) * time.Hour)
	}
	srv.sinceStart = testUptime()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})

	scrape := func() float64 {
		resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz: HTTP %d: %s", resp.StatusCode, body)
		}
		var h healthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		return h.UptimeS
	}
	u1 := scrape()
	u2 := scrape()
	if !(u2 > u1) {
		t.Errorf("uptime not monotonic across a backwards clock step: %v then %v", u1, u2)
	}
	if u1 < 0 || u2 < 0 {
		t.Errorf("negative uptime: %v, %v", u1, u2)
	}
}

// submittedKey reads a job's cache key off its status response.
func submittedKey(t *testing.T, base, id string) string {
	t.Helper()
	_, body := do(t, http.MethodGet, base+"/v1/jobs/"+id, "")
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	return st.Key
}

// TestContractResultStatesFailedAndCanceled pins the two terminal error
// answers of /result that the happy-path script cannot reach: a job
// canceled by shutdown and the method-mismatch fallback.
func TestContractCanceledResult(t *testing.T) {
	gate := make(chan struct{})
	srv, err := New(Config{
		Workers:    1,
		QueueDepth: 4,
		CacheDir:   t.TempDir(),
		gate:       gate,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.now = testClock()
	srv.sinceStart = testUptime()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A occupies the worker at the gate; B sits in the queue and is
	// canceled by the drain.
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"benchmark": "art", "policy": "hyb", "instructions": 100000, "scale": "smoke"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d: %s", resp.StatusCode, body)
	}
	pollState(t, ts.URL, "j-000001", StateRunning)
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"benchmark": "gcc", "policy": "fg", "instructions": 100000, "scale": "smoke"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d: %s", resp.StatusCode, body)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.waitJob(waitCtx, "j-000002"); err != nil {
		t.Fatalf("waitJob B: %v", err)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/v1/jobs/j-000002", "")
	checkGolden(t, "status_canceled", resp, body)
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/jobs/j-000002/result", "")
	checkGolden(t, "result_canceled", resp, body)

	// While draining: health reports 503 and submissions bounce.
	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	checkGolden(t, "health_draining", resp, body)
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"benchmark": "gzip", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`)
	checkGolden(t, "submit_shutting_down", resp, body)

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestHealthOccupancy: with one job held at the worker gate, /healthz
// reports it active and the server's capacity fields.
func TestHealthOccupancy(t *testing.T) {
	srv, ts, gate := contractServer(t)

	resp, body := do(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"benchmark": "gcc", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	pollState(t, ts.URL, "j-000001", StateRunning)

	_, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	var h struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Workers  int     `json:"workers"`
		QueueCap int     `json:"queue_capacity"`
		Queued   int     `json:"queued"`
		Active   int     `json:"active"`
		Jobs     int     `json:"jobs"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz: %v: %s", err, body)
	}
	if h.Status != "ok" || h.Workers != 1 || h.QueueCap != 1 {
		t.Errorf("healthz capacity fields wrong: %+v", h)
	}
	if h.Active != 1 || h.Jobs != 1 {
		t.Errorf("healthz occupancy wrong with one held job: %+v", h)
	}
	if h.UptimeS <= 0 {
		t.Errorf("healthz uptime %g, want > 0", h.UptimeS)
	}

	gate <- struct{}{}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.waitJob(waitCtx, "j-000001"); err != nil {
		t.Fatalf("waitJob: %v", err)
	}
}

// TestRetryAfterRoundsUp pins the 429 backoff hint: Retry-After carries
// whole seconds, rounded up and never 0, since "0" tells a client to
// retry at once.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		retryAfter time.Duration
		want       string
	}{
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{7 * time.Second, "7"},
	} {
		t.Run(tc.retryAfter.String(), func(t *testing.T) {
			gate := make(chan struct{})
			srv, err := New(Config{
				Workers:    1,
				QueueDepth: 1,
				CacheDir:   t.TempDir(),
				RetryAfter: tc.retryAfter,
				gate:       gate,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer func() {
				// Cancel the held job before releasing it, so it ends at
				// once instead of simulating.
				srv.cancelAll()
				close(gate)
				if err := srv.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()

			// A holds the worker at the gate, B fills the queue, C is shed.
			for i, body := range []string{
				`{"benchmark": "art", "policy": "hyb", "instructions": 100000, "scale": "smoke"}`,
				`{"benchmark": "gcc", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`,
			} {
				resp, data := do(t, http.MethodPost, ts.URL+"/v1/jobs", body)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: HTTP %d: %s", i+1, resp.StatusCode, data)
				}
				if i == 0 {
					pollState(t, ts.URL, "j-000001", StateRunning)
				}
			}
			resp, data := do(t, http.MethodPost, ts.URL+"/v1/jobs",
				`{"benchmark": "gzip", "policy": "fg", "instructions": 100000, "scale": "smoke"}`)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("third submit: HTTP %d, want 429: %s", resp.StatusCode, data)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After = %q for %v, want %q", got, tc.retryAfter, tc.want)
			}
		})
	}
}
