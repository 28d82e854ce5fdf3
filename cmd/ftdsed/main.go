// ftdsed is the ftdse solve daemon: it serves the optimizer over HTTP
// with a bounded job queue, a worker pool, an LRU result cache keyed by
// canonical problem fingerprints, and SSE streaming of incumbent
// solutions (anytime results) while the tabu search runs.
//
// Usage:
//
//	ftdsed [-addr :8385] [-queue 64] [-pool N] [-cache 128]
//	       [-max-time-limit 0] [-drain 30s] [-pprof] [-log-level info]
//
// Endpoints: POST /solve (?wait=1), POST /solve/batch, GET /jobs/{id},
// DELETE /jobs/{id}, GET /jobs/{id}/events (SSE), GET /metrics
// (Prometheus text exposition, the only metrics surface), GET /healthz
// and GET /readyz. With -pprof the net/http/pprof profiles mount under
// /debug/pprof/ (runtime memory statistics at /debug/pprof/heap?debug=1,
// the command line at /debug/pprof/cmdline) and an on-demand
// runtime/trace capture under /debug/rtrace.
//
// Logs are structured JSON (log/slog) on stderr; every solve's lines
// carry its trace_id, propagated from the Ftdse-Trace-Id request header
// (or minted on arrival).
//
// On SIGINT/SIGTERM the daemon drains: it stops admitting work, cancels
// running solves — each returns its best-so-far design within one
// scheduling pass — and exits once every job reached a terminal state
// or the drain timeout fires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/ftdse/obs"
	"repro/ftdse/service"
)

func main() {
	addr := flag.String("addr", ":8385", "listen address")
	queue := flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
	pool := flag.Int("pool", runtime.GOMAXPROCS(0), "concurrent solves (worker pool size)")
	cache := flag.Int("cache", 128, "result cache entries (negative disables)")
	maxLimit := flag.Duration("max-time-limit", 0, "cap on per-request time limits (0 = uncapped)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain timeout on shutdown")
	pprof := flag.Bool("pprof", false, "serve /debug/pprof/ and /debug/rtrace profiling endpoints")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, parseLevel(*logLevel))

	svc := service.New(service.Config{
		QueueSize:    *queue,
		PoolWorkers:  *pool,
		CacheSize:    *cache,
		MaxTimeLimit: *maxLimit,
		Logger:       logger,
	})

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if *pprof {
		obs.RegisterDebug(mux)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() {
		logger.Info("ftdsed listening", "addr", *addr,
			"queue", *queue, "pool", *pool, "cache", *cache, "pprof", *pprof)
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("ftdsed server failed", "error", err.Error())
		os.Exit(1)
	case s := <-sig:
		logger.Info("ftdsed draining", "signal", s.String(), "timeout", drain.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ftdsed: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "ftdsed: server shutdown: %v\n", err)
	}
	logger.Info("ftdsed stopped")
}

// parseLevel maps the -log-level flag onto slog levels, defaulting to
// info for unknown values.
func parseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
