// ftclusterd is the ftdse cluster coordinator: it shards solve jobs
// across a set of ftdsed nodes by consistent-hashing their canonical
// fingerprints (cache affinity), health-checks the nodes and re-maps
// shards when one dies, steals work from hot shards, journals every
// admitted job to a write-ahead log, and pulls periodic search
// checkpoints from its nodes so an in-flight solve killed with its node
// resumes on a survivor from its last incumbent design. The coordinator
// is the only caller in the cluster: nodes never contact it.
//
// Usage:
//
//	ftclusterd -node n1=http://host1:8385 -node n2=http://host2:8385
//	           [-addr :8390] [-journal jobs.wal] [-checkpoint 1s] [-health 1s]
//	           [-fail-after 3] [-max-pending 1024] [-drain 30s]
//	           [-pprof] [-log-level info]
//
// The job surface speaks the ftdsed wire protocol — POST /solve
// (?wait=1), POST /solve/batch, GET/DELETE /jobs/{id},
// GET /jobs/{id}/events (SSE), GET /jobs/{id}/checkpoint — so the typed
// client works unchanged. The cluster surface adds
// GET /cluster/checkpoints/{fp} (warm-start fetch),
// GET /cluster/shards, GET /metrics (Prometheus text exposition, the
// only metrics surface), GET /healthz and GET /readyz. With -pprof the
// net/http/pprof profiles mount under /debug/pprof/ (runtime memory
// statistics at /debug/pprof/heap?debug=1, the command line at
// /debug/pprof/cmdline) and an on-demand runtime/trace capture under
// /debug/rtrace.
//
// Logs are structured JSON (log/slog) on stderr; every job's lines —
// admission, dispatches, failovers, conclusion — carry its trace_id,
// propagated from the Ftdse-Trace-Id request header (or minted at
// admission).
//
// On SIGINT/SIGTERM the coordinator stops its loops and exits; solves
// in flight keep running on their nodes, and a restarted coordinator
// re-adopts them from the journal.
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
	"strings"
	"syscall"
	"time"

	"repro/ftdse/cluster"
	"repro/ftdse/obs"
)

// nodeFlags collects repeated -node name=url flags.
type nodeFlags []cluster.Node

func (n *nodeFlags) String() string {
	parts := make([]string, len(*n))
	for i, nd := range *n {
		parts[i] = nd.Name + "=" + nd.URL
	}
	return strings.Join(parts, ",")
}

func (n *nodeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*n = append(*n, cluster.Node{Name: name, URL: strings.TrimRight(url, "/")})
	return nil
}

func main() {
	var nodes nodeFlags
	flag.Var(&nodes, "node", "solver node as name=url (repeat per node)")
	addr := flag.String("addr", ":8390", "listen address")
	journal := flag.String("journal", "", "write-ahead job journal path (empty = no durability)")
	checkpoint := flag.Duration("checkpoint", time.Second, "least time between two checkpoint pulls of one job")
	health := flag.Duration("health", time.Second, "node readiness probe cadence")
	failAfter := flag.Int("fail-after", 3, "consecutive probe failures before a node is dead")
	maxPending := flag.Int("max-pending", 1024, "open job cap (submissions beyond it get 429)")
	drain := flag.Duration("drain", 30*time.Second, "loop shutdown timeout on exit")
	pprof := flag.Bool("pprof", false, "serve /debug/pprof/ and /debug/rtrace profiling endpoints")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, parseLevel(*logLevel))

	if len(nodes) == 0 {
		logger.Error("ftclusterd: at least one -node name=url is required")
		os.Exit(1)
	}

	coord, err := cluster.New(cluster.Config{
		Nodes:              nodes,
		Journal:            *journal,
		CheckpointInterval: *checkpoint,
		HealthInterval:     *health,
		FailAfter:          *failAfter,
		MaxPending:         *maxPending,
		Logger:             logger,
	})
	if err != nil {
		logger.Error("ftclusterd failed to start", "error", err.Error())
		os.Exit(1)
	}

	mux := http.NewServeMux()
	mux.Handle("/", coord.Handler())
	if *pprof {
		obs.RegisterDebug(mux)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	if err := coord.Start(""); err != nil {
		logger.Error("ftclusterd failed to start", "error", err.Error())
		os.Exit(1)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("ftclusterd listening", "addr", *addr,
			"nodes", len(nodes), "journal", *journal, "pprof", *pprof)
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("ftclusterd server failed", "error", err.Error())
		os.Exit(1)
	case s := <-sig:
		logger.Info("ftclusterd stopping", "signal", s.String(), "timeout", drain.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := coord.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ftclusterd: shutdown incomplete: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "ftclusterd: server shutdown: %v\n", err)
	}
	logger.Info("ftclusterd stopped")
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
