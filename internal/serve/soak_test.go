// The soak: hundreds of mixed submissions from concurrent clients, with
// heavy duplication, against a small pool and a shallow queue — then the
// books are audited. Every job completes, every distinct configuration
// simulated exactly once (the counters prove it), and every served result
// is byte-identical to a solo run of the same configuration with plain
// core.New. Run under -race this doubles as the data-race
// proof for the whole submit/dedupe/cache/drain surface.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// soakTotal and soakClients match the service-level claim in EXPERIMENTS
// terms: at least 500 submissions from at least 8 clients, zero failures.
const (
	soakTotal   = 500
	soakClients = 8
	soakMix     = 24
)

// soakJobs walks the benchmark × policy grid for n configs at smoke
// scale, with every tenth one traced: n distinct keys, one baseline
// family.
func soakJobs(n int) []JobConfig {
	benches := trace.BenchmarkNames()
	policies := []string{"hyb", "dvs", "fg", "pi-hyb", "clockgate", "fg-fixed"}
	out := make([]JobConfig, n)
	for i := range out {
		out[i] = JobConfig{
			Benchmark:    benches[i%len(benches)],
			Policy:       policies[(i/len(benches))%len(policies)],
			Instructions: 100_000,
			Scale:        ScaleSmoke,
			Trace:        i%10 == 0,
		}.Normalize()
	}
	return out
}

// soakSubmit posts one config, retrying after each 429, then polls the
// job until it reaches a terminal state. It returns that state and how
// many 429s it absorbed.
func soakSubmit(ctx context.Context, client *http.Client, base string, body []byte) (string, int, error) {
	rejected := 0
	var sub submitResponse
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", rejected, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", rejected, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			if err := soakSleep(ctx, 20*time.Millisecond); err != nil {
				return "", rejected, err
			}
			continue
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return "", rejected, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			return "", rejected, err
		}
		break
	}
	state := sub.State
	for poll := 5 * time.Millisecond; state == StateQueued || state == StateRunning; {
		if err := soakSleep(ctx, poll); err != nil {
			return "", rejected, err
		}
		poll = min(2*poll, 100*time.Millisecond)
		resp, err := client.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return "", rejected, err
		}
		var st statusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", rejected, fmt.Errorf("status %s: %w", sub.ID, err)
		}
		state = st.State
	}
	return state, rejected, nil
}

func soakSleep(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func TestSoakConcurrentMixedLoad(t *testing.T) {
	jobs := soakJobs(soakMix)

	reg := obs.NewRegistry()
	srv, err := New(Config{
		Workers:    2,
		QueueDepth: 8, // shallow on purpose: the soak must survive shedding
		CacheDir:   t.TempDir(),
		RetryAfter: time.Second,
		Metrics:    reg,
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

	// Observability scrapers run concurrently with the load: /metrics and
	// the Prometheus exposition. Under -race this is the proof that
	// scraping never tears the serving path.
	scrapeCtx, stopScrapes := context.WithCancel(ctx)
	var scrapes sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.prom"} {
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

	// Submission i sends jobs[i%soakMix], so every config is submitted
	// many times over; soakClients clients share the submissions.
	bodies := make([][]byte, len(jobs))
	keys := map[string]bool{}
	for i, jc := range jobs {
		key, err := jc.Key()
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		keys[key] = true
		if bodies[i], err = json.Marshal(jc); err != nil {
			t.Fatalf("Marshal: %v", err)
		}
	}
	if len(keys) != soakMix {
		t.Fatalf("mix has %d distinct keys, want %d", len(keys), soakMix)
	}
	var (
		mu       sync.Mutex
		tally    struct{ completed, failed, rejected int }
		firstErr error
		clients  sync.WaitGroup
	)
	next := make(chan int)
	for c := 0; c < soakClients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := range next {
				state, rejected, err := soakSubmit(ctx, ts.Client(), ts.URL, bodies[i%len(bodies)])
				mu.Lock()
				tally.rejected += rejected
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case state == StateDone:
					tally.completed++
				default:
					tally.failed++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < soakTotal; i++ {
		next <- i
	}
	close(next)
	clients.Wait()
	stopScrapes()
	scrapes.Wait()
	if firstErr != nil {
		t.Fatalf("client: %v", firstErr)
	}

	// Service-level: everything submitted completed.
	if tally.completed != soakTotal || tally.failed != 0 {
		t.Fatalf("completed %d, failed %d; want %d completed, 0 failed",
			tally.completed, tally.failed, soakTotal)
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
	if tally.rejected != int(counters[obs.MetricServeRejected]) {
		t.Errorf("clients saw %d rejections, server counted %d",
			tally.rejected, counters[obs.MetricServeRejected])
	}

	// The lifecycle histograms must agree with the exactly-once ledger:
	// each of the soakMix executed jobs waited in the queue once and ran
	// once — no sample lost to a scrape, none double-counted.
	for _, name := range []string{obs.MetricServeQueueWait, obs.MetricServeRunSecs} {
		if got := reg.Histogram(name).Count(); got != int64(soakMix) {
			t.Errorf("%s count = %d, want %d (one sample per executed job)", name, got, soakMix)
		}
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
		entry, ok := srv.cache.Get(key)
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
	dir, err := os.ReadDir(srv.cache.Dir())
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
