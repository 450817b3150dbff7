// Graceful shutdown, audited: in-flight work drains to completion and
// persists, queued work reports canceled (never lost silently), the cache
// directory stays consistent, and a restart over the same directory
// answers every previously completed configuration from disk.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hybriddtm/internal/obs"
)

func submitJSON(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, data := do(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	var sub submitResponse
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatalf("submit response: %v", err)
		}
	}
	return sub, resp.StatusCode
}

func TestGracefulShutdownDrainsAndRestartHitsCache(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	srv, err := New(Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Metrics: reg, gate: gate})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobA := `{"benchmark": "art", "policy": "hyb", "instructions": 100000, "scale": "smoke"}`
	jobB := `{"benchmark": "gcc", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`

	// A reaches the worker and holds at the gate (in-flight); B queues.
	subA, code := submitJSON(t, ts, jobA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", code)
	}
	pollState(t, ts.URL, subA.ID, StateRunning)
	subB, code := submitJSON(t, ts, jobB)
	if code != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", code)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Queued-but-unstarted work is promptly reported canceled, not lost.
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.waitJob(waitCtx, subB.ID); err != nil {
		t.Fatalf("waitJob B: %v", err)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+subB.ID, "")
	var stB statusResponse
	if err := json.Unmarshal(body, &stB); err != nil {
		t.Fatalf("status B: %v", err)
	}
	if stB.State != StateCanceled || stB.Error == "" {
		t.Errorf("B after drain: state %q error %q; want canceled with a message", stB.State, stB.Error)
	}

	// New submissions bounce while draining.
	if _, code := submitJSON(t, ts, `{"benchmark": "gzip", "policy": "fg", "instructions": 100000, "scale": "smoke"}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}

	// Release the worker: the in-flight job must complete and persist.
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.waitJob(waitCtx, subA.ID); err != nil {
		t.Fatalf("waitJob A: %v", err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/v1/jobs/"+subA.ID, "")
	var stA statusResponse
	if err := json.Unmarshal(body, &stA); err != nil {
		t.Fatalf("status A: %v", err)
	}
	if stA.State != StateDone {
		t.Fatalf("A after drain: state %q, want done", stA.State)
	}
	entryA, ok := srv.cache.Get(stA.Key)
	if !ok {
		t.Fatalf("A's result not persisted across shutdown")
	}
	if got := reg.Counter(obs.MetricServeCanceled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricServeCanceled, got)
	}

	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}

	// The cache dir is consistent: complete entries only, no temp files.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), "tmp-") {
			t.Errorf("temp debris after shutdown: %s", f.Name())
		}
	}

	// Restart over the same directory: A is a disk hit with the identical
	// measurement; B (canceled, never run) is honestly a miss.
	srv2, err := New(Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown (restart): %v", err)
		}
	}()

	subA2, code := submitJSON(t, ts2, jobA)
	if code != http.StatusOK || !subA2.Cached {
		t.Fatalf("resubmit A after restart: HTTP %d cached=%v, want 200 cached", code, subA2.Cached)
	}
	_, body = do(t, http.MethodGet, ts2.URL+"/v1/jobs/"+subA2.ID+"/result", "")
	var resA resultResponse
	if err := json.Unmarshal(body, &resA); err != nil {
		t.Fatalf("result A (restart): %v", err)
	}
	wantM, _ := json.Marshal(entryA.Measurement)
	gotM, _ := json.Marshal(resA.Measurement)
	if string(wantM) != string(gotM) {
		t.Errorf("restart served a different measurement:\n before %s\n after  %s", wantM, gotM)
	}

	subB2, code := submitJSON(t, ts2, jobB)
	if code != http.StatusAccepted || subB2.Cached {
		t.Fatalf("resubmit B after restart: HTTP %d cached=%v, want 202 uncached (it never ran)", code, subB2.Cached)
	}
	if err := srv2.waitJob(waitCtx, subB2.ID); err != nil {
		t.Fatalf("waitJob B (restart): %v", err)
	}
}

// TestCloseFailsInFlight pins the hard-stop contract: Close cancels the
// execution context, the in-flight job reports failed (with the context
// error), and /result answers 409 job_failed.
func TestCloseFailsInFlight(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A long job (quick scale, 10M instructions) so Close interrupts it
	// mid-simulation rather than racing its completion.
	sub, code := submitJSON(t, ts,
		`{"benchmark": "art", "policy": "hyb", "instructions": 10000000, "scale": "quick"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollState(t, ts.URL, sub.ID, StateRunning)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.waitJob(waitCtx, sub.ID); err != nil {
		t.Fatalf("waitJob: %v", err)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result after Close: HTTP %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if eb.Error.Code != "job_failed" {
		t.Errorf("error code %q, want job_failed", eb.Error.Code)
	}
	if !strings.Contains(eb.Error.Message, "context canceled") {
		t.Errorf("error message %q does not name the cancellation", eb.Error.Message)
	}
}
