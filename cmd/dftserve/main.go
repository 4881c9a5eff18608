// Command dftserve runs the DFT-MSN scenario service: an HTTP/JSON daemon
// that accepts scenario runs, predefined sweeps, and chaos campaigns, and
// executes them on a bounded worker pool with admission control, per-job
// wall-clock deadlines, panic quarantine, a content-addressed result
// cache, and a crash-safe job journal.
//
// Usage:
//
//	dftserve [-addr 127.0.0.1:8080] [-journal jobs.jsonl] [-state-dir DIR]
//	         [-queue 64] [-workers 0] [-retries 2]
//	         [-tenant-rate 0] [-tenant-burst 8]
//	         [-default-deadline 0] [-max-deadline 0] [-grace 5s]
//	         [-log info] [-debug-addr 127.0.0.1:6060]
//	         [-heartbeat 15s] [-progress-every 1s]
//
// API:
//
//	POST /v1/jobs      submit {"kind":"run|sweep|chaos", ...}; 202 queued,
//	                   200 when served from the result cache, 429 with
//	                   Retry-After under backpressure
//	GET  /v1/jobs      list job statuses
//	GET  /v1/jobs/{id} job status and result payload
//	GET  /v1/jobs/{id}/stream    live trace-v2 event stream as SSE for jobs
//	                   submitted with "stream": true; resumable from any
//	                   offset (?offset= or Last-Event-ID), heartbeats while
//	                   idle, "event: done" terminator; a finished job's
//	                   stream is served by re-running its config up to
//	                   the recorded event count (PROTOCOL.md section 14)
//	GET  /v1/jobs/{id}/progress  latest kernel progress snapshot (virtual
//	                   clock, fraction of horizon, event rate, ETA) as JSON
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//	GET  /metrics      Prometheus text exposition: job/admission counters
//	                   (per-tenant labels, stream re-runs), queue, cache
//	                   and live-stream gauges, queue-wait and run-duration
//	                   histograms
//
// -log LEVEL enables structured logs on stderr (debug, info, warn, error),
// every line carrying the job id as a correlation attribute. -debug-addr
// serves net/http/pprof on a separate listener, kept off the public API
// address on purpose. dfttail is the companion client for /stream and
// /progress.
//
// Determinism makes the service cache exact: a scenario config, seed, and
// build version fully determine the result, so a repeated submission is
// answered from the cache without simulating a single event.
//
// On SIGTERM/SIGINT the server drains: submissions are refused, running
// jobs get -grace to finish, and whatever is still running past grace is
// cancelled at its next event boundary and journaled for resumption. With
// -journal the next dftserve picks up every unfinished job; interrupted
// chaos campaigns resume from their -state-dir files and reach verdicts
// bit-identical to an uninterrupted run. kill -9 loses nothing either:
// every state transition is fsync'd before it is acted on.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"dftmsn/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dftserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dftserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		journal  = fs.String("journal", "", "crash-safe job journal; replayed on start (empty = memory only)")
		stateDir = fs.String("state-dir", "", "directory for chaos-campaign state files (empty = no campaign resume)")
		queue    = fs.Int("queue", 64, "admission queue depth; overflow gets 429 + Retry-After")
		workers  = fs.Int("workers", 0, "simulations in flight at once across all jobs (0 = all CPUs)")
		retries  = fs.Int("retries", 2, "retries before a failing job is quarantined")

		tenantRate  = fs.Float64("tenant-rate", 0, "per-tenant admissions per second (0 = unlimited)")
		tenantBurst = fs.Int("tenant-burst", 8, "per-tenant admission burst")

		defaultDeadline = fs.Duration("default-deadline", 0, "deadline for jobs that set none (0 = none)")
		maxDeadline     = fs.Duration("max-deadline", 0, "cap on any job deadline (0 = no cap)")
		grace           = fs.Duration("grace", 5*time.Second, "drain grace before running jobs are cancelled on shutdown")

		logLevel      = fs.String("log", "", "structured log level on stderr: debug, info, warn, or error (empty = off)")
		debugAddr     = fs.String("debug-addr", "", "separate listener for net/http/pprof profiling endpoints (empty = off)")
		heartbeat     = fs.Duration("heartbeat", 15*time.Second, "SSE comment heartbeat interval on idle /stream connections")
		progressEvery = fs.Duration("progress-every", 0, "how often running jobs refresh their progress snapshot (0 = 1s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return err
		}
	}
	var logger *slog.Logger
	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("-log: %w", err)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	s, err := service.New(service.Options{
		QueueDepth:       *queue,
		Workers:          *workers,
		MaxRetries:       *retries,
		TenantRatePerSec: *tenantRate,
		TenantBurst:      *tenantBurst,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		JournalPath:      *journal,
		StateDir:         *stateDir,
		Logger:           logger,
		StreamHeartbeat:  *heartbeat,
		ProgressEvery:    *progressEvery,
	})
	if err != nil {
		return err
	}
	s.Start()

	if *debugAddr != "" {
		// pprof registers itself on http.DefaultServeMux; serving that mux
		// on its own listener keeps the profiling surface off the API port.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dftserve debug (pprof) on %s\n", dln.Addr())
		go http.Serve(dln, http.DefaultServeMux)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dftserve listening on %s (build %s)\n", ln.Addr(), service.BuildVersion())
	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		fmt.Fprintf(out, "dftserve: %v, draining (grace %v)\n", got, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace+5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		s.Shutdown(*grace)
		fmt.Fprintln(out, "dftserve: drained")
	}
	return nil
}
