// Command tcserved runs the simulation-as-a-service daemon: an
// HTTP/JSON front end over tcsim with a bounded worker pool, a
// config-hash result cache with singleflight deduplication, an async
// job store, sweep fan-out, backpressure, live metrics, and graceful
// drain on SIGTERM.
//
// Usage:
//
//	tcserved -addr :8080
//	tcserved -addr :8080 -workers 8 -queue 32 -job-ttl 5m -pprof
//	tcserved -selfcheck
//
// Endpoints:
//
//	POST /v1/jobs            submit a job (sync; ?async=1 to poll instead)
//	GET  /v1/jobs/{id}       poll an async job
//	POST /v1/sweeps          batch workloads x configs, deduplicated
//	GET  /v1/passes          registered fill-unit optimization passes
//	GET  /v1/traces/{sha}    content-addressed trace CDN export (also HEAD)
//	GET  /healthz            liveness
//	GET  /healthz/ready      readiness (503 once draining starts)
//	GET  /metrics            every counter, as a Prometheus text-format exposition
//	GET  /debug/spans        recent request spans (?trace=<request-id> filters)
//	GET  /debug/flight       flight recorder: recent spans + job-lifecycle events
//	GET  /debug/trace/{id}   merged Chrome trace for a job: spans over cycles
//
// Requests carrying X-Trace-Parent (the gateway sets it) contribute
// their spans to the distributed trace named by the request ID; SIGQUIT
// dumps the flight recorder to -flight-dir without stopping the daemon.
//
// In a cluster (see cmd/tcgate), -cdn points the node at the gateway's
// trace CDN: a capture miss first asks the cluster for the workload's
// content-addressed trace and only emulates if no peer has it.
//
// Every request is logged structurally (log/slog; -log-format, -log-level)
// under an X-Request-ID the response echoes, so client-reported failures
// can be matched to server-side log lines.
//
// -selfcheck starts an in-process daemon, hammers it with a mixed
// duplicate-heavy job load plus a sweep, asserts every served result is
// bit-for-bit identical to a direct tcsim.Run of the same config, that
// the cache deduplicated repeats, that the trace store captured each
// workload's correct-path stream exactly once and replayed it for every
// repeat config, that a saturated queue answers 429, that /metrics
// parses as a valid Prometheus exposition with monotone counters, and
// that request IDs round-trip — then exits non-zero on any violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcsim"
	"tcsim/internal/cluster"
	"tcsim/internal/prof"
	"tcsim/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI
// in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "admitted jobs beyond the running ones (0 = 4*workers, <0 = none)")
		cacheSize  = fs.Int("cache", 4096, "result cache entries")
		jobTTL     = fs.Duration("job-ttl", 10*time.Minute, "how long finished async jobs stay pollable")
		jobTimeout = fs.Duration("job-timeout", 60*time.Second, "default per-job wall-clock cap")
		maxTimeout = fs.Duration("max-job-timeout", 5*time.Minute, "upper bound on requested per-job timeouts")
		maxInsts   = fs.Uint64("max-insts", 50_000_000, "per-job retired-instruction cap (0 = unlimited)")
		drainWait  = fs.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		selfcheck  = fs.Bool("selfcheck", false, "run the end-to-end self check (single daemon, then a 3-node cluster behind a gateway) and exit")
		scJobs     = fs.Int("selfcheck-jobs", 56, "selfcheck: job submissions (>= 50, duplicates included)")
		scCluster  = fs.Int("selfcheck-cluster-jobs", 2000, "selfcheck: jobs driven through the 3-node cluster phase (>= 2000; 0 skips the phase)")
		scInsts    = fs.Uint64("insts", 50_000, "selfcheck: retired-instruction budget per job")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file at exit")
		trc        = fs.String("trace", "", "write a runtime execution trace to this file")
		logFormat  = fs.String("log-format", "text", "structured log format: text or json")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		traceDir   = fs.String("tracedir", "", "directory for persisted workload traces: warm restarts load captures from disk instead of re-emulating (invalid/stale files are rejected and re-captured)")
		cdnURL     = fs.String("cdn", "", "cluster gateway base URL: capture misses fetch the trace from peers through GET {cdn}/v1/traces/{sha} before emulating (fetched bodies are fail-closed validated)")
		flightDir  = fs.String("flight-dir", "", "directory for flight-recorder dumps: SIGQUIT, selfcheck failures, and 5xx responses write the recent-span/event buffer there (\"\" = SIGQUIT dumps to the working directory; automatic dumps off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tcserved: unexpected arguments %q\nrun 'tcserved -h' for usage\n", fs.Args())
		return 2
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "tcserved: %v\nrun 'tcserved -h' for usage\n", err)
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf, *trc)
	if err != nil {
		fmt.Fprintf(stderr, "tcserved: %v\n", err)
		return 1
	}

	if *traceDir != "" {
		tcsim.SetTraceDir(*traceDir)
	}
	if *cdnURL != "" {
		tcsim.SetTraceFetcher(cluster.TraceFetcher(*cdnURL, nil))
		logger.Info("trace CDN enabled", "gateway", *cdnURL)
	}
	if *traceDir != "" || *cdnURL != "" {
		tcsim.SetTraceRejectLog(func(file string, err error) {
			logger.Warn("rejected trace, re-capturing live", "source", file, "error", err.Error())
		})
	}

	scfg := server.Config{
		Engine: server.EngineConfig{
			Workers:      *workers,
			Queue:        *queue,
			CacheEntries: *cacheSize,
			Limits: server.Limits{
				MaxInsts:       *maxInsts,
				DefaultTimeout: *jobTimeout,
				MaxTimeout:     *maxTimeout,
			},
		},
		JobTTL:    *jobTTL,
		Logger:    logger,
		FlightDir: *flightDir,
	}

	code := 0
	if *selfcheck {
		code = runSelfcheck(stdout, stderr, scfg, *scJobs, *scInsts, *flightDir)
		if code == 0 && *scCluster > 0 {
			code = runClusterSelfcheck(stdout, stderr, scfg, *scCluster, *scInsts, *flightDir)
		}
	} else {
		code = serve(stdout, stderr, logger, scfg, *addr, *drainWait, *pprofOn, *flightDir)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(stderr, "tcserved: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// newLogger builds the daemon's structured logger from the -log-format
// and -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (valid: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
}

// serve runs the daemon until SIGTERM/SIGINT, then drains gracefully:
// the listener stops accepting, in-flight requests and admitted async
// jobs finish (up to the drain deadline), then the process exits.
func serve(stdout, stderr io.Writer, logger *slog.Logger, scfg server.Config, addr string, drainWait time.Duration, pprofOn bool, flightDir string) int {
	srv := server.New(scfg)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if pprofOn {
		prof.AttachPprof(mux)
	}
	httpSrv := &http.Server{Handler: mux}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "error", err.Error())
		return 1
	}
	logger.Info("listening", "url", "http://"+ln.Addr().String(), "pprof", pprofOn)
	fmt.Fprintf(stdout, "tcserved: listening on http://%s\n", ln.Addr())

	// SIGQUIT dumps the flight recorder without stopping the daemon: a
	// wedged or misbehaving process preserves its recent spans and job
	// events for offline inspection, then keeps serving.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			if path, err := srv.Flight().DumpToDir(flightDir); err != nil {
				logger.Error("flight dump failed", "error", err.Error())
			} else {
				logger.Info("flight recorder dumped", "path", path, "trigger", "SIGQUIT")
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err.Error())
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills us

	// Flip readiness first: load balancers and the cluster gateway stop
	// routing here while the listener still answers in-flight (and
	// already-routed) requests; only then stop accepting connections.
	srv.BeginDrain()
	logger.Info("draining", "deadline", drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("http shutdown", "error", err.Error())
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Error("drain failed", "error", err.Error())
		return 1
	}
	logger.Info("drained")
	return 0
}
