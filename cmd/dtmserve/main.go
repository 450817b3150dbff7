// Command dtmserve runs the thermal simulator as a service: an HTTP/JSON
// job API over the experiment runner, with a bounded worker pool, bounded
// admission queue (load is shed with 429 + Retry-After), and a persistent
// content-addressed result cache so identical configurations — in-flight
// or historical — simulate exactly once.
//
// Usage:
//
//	dtmserve [-cache DIR] [-addr :8080] [-workers N] [-queue N]
//	         [-max-insts N] [-retry-after 1s] [-drain 30s] [-quiet]
//
// Endpoints: POST /v1/jobs (submit a config, get a job id), GET /v1/jobs
// and /v1/jobs/{id} (status), /v1/jobs/{id}/result, /v1/jobs/{id}/trace
// (JSONL event stream for jobs submitted with "trace": true), /healthz,
// and /metrics (the obs registry; /metrics.prom for the Prometheus text
// format). SIGINT/SIGTERM drain gracefully: in-flight jobs complete and
// persist, queued jobs report "canceled".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybriddtm/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dtmserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	cacheDir := flag.String("cache", "", "persistent result cache directory (default: a temporary directory)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = serve default)")
	queue := flag.Int("queue", 0, "max queued-but-unstarted jobs before shedding with 429 (0 = serve default)")
	maxInsts := flag.Uint64("max-insts", 0, "per-job instruction cap (0 = serve default)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429 responses (0 = serve default)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight jobs")
	quiet := flag.Bool("quiet", false, "suppress request/job logging")
	flag.Parse()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	dir := *cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dtmserve-cache-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup of a temp dir
		dir = tmp
		fmt.Fprintln(os.Stderr, "dtmserve: cache:", dir)
	}
	cfg := serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheDir:        dir,
		MaxInstructions: *maxInsts,
		RetryAfter:      *retryAfter,
		Logger:          logger,
	}
	return runServe(ctx, cfg, *addr, *drain)
}

// runServe hosts the API until the context is canceled, then drains:
// stop accepting (http.Server.Shutdown), then let in-flight simulations
// finish and persist (serve.Server.Shutdown with the -drain budget).
func runServe(ctx context.Context, cfg serve.Config, addr string, drain time.Duration) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmserve: listening on http://%s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dtmserve: shutting down, draining in-flight jobs")
	stopCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	httpErr := httpSrv.Shutdown(stopCtx)
	if err := srv.Shutdown(stopCtx); err != nil {
		return err
	}
	return httpErr
}
