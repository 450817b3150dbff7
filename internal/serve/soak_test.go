// The soak: hundreds of mixed submissions from concurrent clients, with
// heavy duplication, against a small pool and a shallow queue — then the
// books are audited. Every job completes, every distinct configuration
// simulated exactly once (the counters prove it), and every served result
// is byte-identical to a solo run of the same configuration with plain
// core.New. Run under -race this doubles as the data-race
// proof for the whole submit/dedupe/cache/drain surface.
package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/obs"
)

// soakTotal and soakClients match the service-level claim in EXPERIMENTS
// terms: at least 500 submissions from at least 8 clients, zero failures.
const (
	soakTotal   = 500
	soakClients = 8
	soakMix     = 24
)

func TestSoakConcurrentMixedLoad(t *testing.T) {
	jobs := DefaultMix(soakMix, 100_000, ScaleSmoke)

	reg := obs.NewRegistry()
	srv, err := New(Config{
		Workers:    2,
		QueueDepth: 8, // shallow on purpose: the soak must survive shedding
		CacheDir:   t.TempDir(),
		RetryAfter: time.Second,
		Metrics:    reg,
		Spans:      true, // rings + spans live while scrapers read them
	})
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

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// Observability scrapers run concurrently with the load: /metrics,
	// the Prometheus exposition, and the dashboard (which snapshots the
	// live per-job event rings while workers emit into them). Under -race
	// this is the proof that scraping never tears the serving path.
	scrapeCtx, stopScrapes := context.WithCancel(ctx)
	var scrapes sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.prom", "/v1/dashboard"} {
		scrapes.Add(1)
		go func(path string) {
			defer scrapes.Done()
			client := ts.Client()
			for scrapeCtx.Err() == nil {
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					return // server shutting down
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("scrape %s: HTTP %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}

	report, err := Replay(ctx, LoadSpec{
		BaseURL: ts.URL,
		Jobs:    jobs,
		Total:   soakTotal,
		Clients: soakClients,
		Client:  ts.Client(),
	})
	stopScrapes()
	scrapes.Wait()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}

	// Service-level: everything submitted completed.
	if report.Completed != soakTotal || report.Failed != 0 {
		t.Fatalf("completed %d, failed %d; want %d completed, 0 failed",
			report.Completed, report.Failed, soakTotal)
	}
	if report.Distinct != soakMix {
		t.Fatalf("mix has %d distinct keys, want %d", report.Distinct, soakMix)
	}

	// The counters must prove exactly-once simulation: one cache miss and
	// one completed simulation per distinct configuration, and every other
	// submission answered by dedup (or, after a restart, the disk cache).
	counters := map[string]int64{}
	for _, name := range []string{
		obs.MetricServeJobs, obs.MetricServeFailed, obs.MetricServeCanceled,
		obs.MetricServeCacheMisses, obs.MetricServeCacheHits,
		obs.MetricServeDeduped, obs.MetricServeRejected,
	} {
		counters[name] = reg.Counter(name).Value()
	}
	if got := counters[obs.MetricServeJobs]; got != int64(soakMix) {
		t.Errorf("%s = %d, want %d (each distinct config simulated exactly once)",
			obs.MetricServeJobs, got, soakMix)
	}
	if got := counters[obs.MetricServeCacheMisses]; got != int64(soakMix) {
		t.Errorf("%s = %d, want %d", obs.MetricServeCacheMisses, got, soakMix)
	}
	if got := counters[obs.MetricServeDeduped] + counters[obs.MetricServeCacheHits]; got != int64(soakTotal-soakMix) {
		t.Errorf("deduped %d + cache hits %d = %d, want %d (every duplicate coalesced)",
			counters[obs.MetricServeDeduped], counters[obs.MetricServeCacheHits], got, soakTotal-soakMix)
	}
	if counters[obs.MetricServeFailed] != 0 || counters[obs.MetricServeCanceled] != 0 {
		t.Errorf("failed %d, canceled %d; want 0, 0",
			counters[obs.MetricServeFailed], counters[obs.MetricServeCanceled])
	}
	if report.Rejected != int(counters[obs.MetricServeRejected]) {
		t.Errorf("client saw %d rejections, server counted %d",
			report.Rejected, counters[obs.MetricServeRejected])
	}

	// The lifecycle histograms must agree with the exactly-once ledger:
	// each of the soakMix executed jobs waited in the queue once and ran
	// once — no sample lost to a scrape, none double-counted.
	for _, name := range []string{obs.MetricServeQueueWait, obs.MetricServeRunSecs} {
		if got := reg.Histogram(name).Count(); got != int64(soakMix) {
			t.Errorf("%s count = %d, want %d (one sample per executed job)", name, got, soakMix)
		}
	}
	if report.LatencySamples != report.Completed {
		t.Errorf("latency percentiles backed by %d samples, want %d completions",
			report.LatencySamples, report.Completed)
	}

	// Results must be byte-identical to solo runs of the same configs
	// with plain core.New — concurrency, dedup, the cache, shared cores
	// and trace observation change nothing about the physics.
	bases := make(map[string]core.Result)
	seen := map[string]bool{}
	for _, jc := range jobs {
		key, err := jc.Key()
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		entry, ok := srv.Cache().Get(key)
		if !ok {
			t.Fatalf("no cache entry for %s/%s (key %s)", jc.Benchmark, jc.Policy, key)
		}
		want := soloRun(t, bases, jc, nil)
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(entry.Measurement)
		if string(wantJSON) != string(gotJSON) {
			t.Errorf("%s/%s (trace=%v): served result differs from solo run:\n solo   %s\n served %s",
				jc.Benchmark, jc.Policy, jc.Trace, wantJSON, gotJSON)
		}
	}

	// The cache directory must hold exactly the committed artifacts: one
	// entry per distinct config, traces for the traced ones, no temp debris.
	entries, traces := 0, 0
	dir, err := os.ReadDir(srv.Cache().Dir())
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, d := range dir {
		switch {
		case strings.HasPrefix(d.Name(), "tmp-"):
			t.Errorf("temp debris in cache dir: %s", d.Name())
		case strings.HasSuffix(d.Name(), ".trace.jsonl"):
			traces++
		case strings.HasSuffix(d.Name(), ".json"):
			entries++
		}
	}
	wantTraces := 0
	for _, jc := range jobs {
		if jc.Trace {
			wantTraces++
		}
	}
	if entries != soakMix || traces != wantTraces {
		t.Errorf("cache dir has %d entries and %d traces, want %d and %d",
			entries, traces, soakMix, wantTraces)
	}
}
