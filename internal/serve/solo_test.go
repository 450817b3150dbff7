package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
)

// soloRun measures a job the plain way, sharing nothing: core.New and
// RunContext for the job, observed by tracer when it is non-nil, and for
// its baseline. bases keeps baselines across calls, keyed by resolved
// config, budget and benchmark.
func soloRun(t *testing.T, bases map[string]core.Result, jc JobConfig, tracer obs.Tracer) experiments.Measurement {
	t.Helper()
	cfg, prof, factory, err := jc.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	run := func(cfg core.Config, pol dtm.Policy) core.Result {
		t.Helper()
		sim, err := core.New(cfg, prof, pol)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		res, err := sim.RunContext(context.Background(), jc.Instructions)
		if err != nil {
			t.Fatalf("solo run %s/%s: %v", jc.Benchmark, jc.Policy, err)
		}
		return res
	}
	key, err := obs.HashJSON(struct {
		Config       core.Config `json:"config"`
		Instructions uint64      `json:"instructions"`
		Benchmark    string      `json:"benchmark"`
	}{cfg, jc.Instructions, prof.Name})
	if err != nil {
		t.Fatalf("HashJSON: %v", err)
	}
	base, ok := bases[key]
	if !ok {
		base = run(cfg, nil)
		bases[key] = base
	}
	pol, err := factory.New()
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	cfg.Tracer = tracer
	res := run(cfg, pol)
	return experiments.Measurement{
		Benchmark: prof.Name,
		Policy:    factory.Name,
		Slowdown:  (res.WallTime / float64(res.Instructions)) / (base.WallTime / float64(base.Instructions)),
		Result:    res,
	}
}

// TestTracedJobMatchesSolo serves two traced jobs of one benchmark, the
// first with its baseline cold and the second with it cached, and checks
// that each job's Measurement is deep-equal to a solo run's and that its
// JSONL trace artifact is byte-identical to the solo run's trace.
func TestTracedJobMatchesSolo(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	bases := make(map[string]core.Result)
	for _, body := range []string{
		`{"benchmark": "art", "policy": "hyb", "instructions": 100000, "scale": "smoke", "trace": true}`,
		`{"benchmark": "art", "policy": "dvs", "instructions": 100000, "scale": "smoke", "trace": true}`,
	} {
		sub, code := submitJSON(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", body, code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err := srv.WaitJob(ctx, sub.ID)
		cancel()
		if err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
		srv.mu.Lock()
		j := srv.jobs[sub.ID]
		state, got := j.state, j.measurement
		srv.mu.Unlock()
		if state != StateDone {
			t.Fatalf("%s: state %q, want done", body, state)
		}
		gotTrace, err := os.ReadFile(srv.Cache().TracePath(sub.Key))
		if err != nil {
			t.Fatalf("trace artifact: %v", err)
		}

		var jc JobConfig
		if err := json.Unmarshal([]byte(body), &jc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		want := soloRun(t, bases, jc.Normalize(), sink)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: served measurement differs from the solo run:\n served %+v\n solo   %+v", jc.Benchmark, jc.Policy, got, want)
		}
		if !bytes.Equal(gotTrace, buf.Bytes()) {
			t.Errorf("%s/%s: served trace differs from the solo trace (%d vs %d bytes)", jc.Benchmark, jc.Policy, len(gotTrace), buf.Len())
		}
	}
}
