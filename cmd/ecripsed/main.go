// Command ecripsed is the yield-analysis daemon: an HTTP/JSON service that
// runs the repository's estimators (ECRIPSE, naive MC, SIS, statistical
// blockade, subset simulation) as asynchronous jobs behind a bounded queue,
// a worker pool and a content-addressed result cache.
//
// Usage:
//
//	ecripsed -addr :8080 -workers 8 -queue 128 -cache 512 -data-dir /var/lib/ecripsed
//
// With -data-dir set, every job event and completed result is journaled to
// disk and replayed on the next boot: terminal jobs and their results come
// back as-is, and jobs that were queued or running when the process died
// are re-enqueued under their original IDs (specs are deterministic, so the
// re-run reproduces the lost results). Without it, state lives in process
// memory as before.
//
// Endpoints: POST/GET/DELETE /v1/jobs[/{id}], POST /v1/jobs:batch,
// POST/GET/DELETE /v1/sweeps[/{id}] (multi-point parameter grids with
// cross-point warm starts; see the README's "Sweeps" section),
// GET /v1/jobs/{id}/events and /v1/sweeps/{id}/events (SSE progress and
// convergence diagnostics),
// GET /v1/jobs/{id}/trace (span timeline), GET /v1/cache/{key} (peer cache
// lookup), GET /metrics (JSON; ?format=prometheus for text exposition),
// GET /healthz. With -debug-addr set, net/http/pprof and expvar are served
// on a separate listener (keep it private — it exposes heap and goroutine
// internals). See the README's "Running the service" and "Observability"
// sections for a walkthrough. SIGINT/SIGTERM trigger a graceful drain:
// intake stops, running jobs finish, then the process exits.
//
// Clustering: with -node-id and -peers set, the node becomes one shard of a
// multi-node cluster — every node is an entry point, jobs are partitioned
// across nodes by spec content hash over a consistent-hash ring, submits a
// peer already computed are answered from its cache, and a dead peer's
// dispatched jobs are re-enqueued on their ring successors. With -api-keys
// set, clients authenticate with bearer keys and are rate-limited and
// quota-accounted per tenant. See the README's "Cluster" section.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecripse/internal/cluster"
	"ecripse/internal/service"
	"ecripse/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 4, "worker pool size")
		queueCap     = flag.Int("queue", 64, "job queue capacity")
		cacheCap     = flag.Int("cache", 256, "result cache entries (negative disables)")
		jobParallel  = flag.Int("job-parallelism", 0, "cap on a job's intra-estimator workers (0 = GOMAXPROCS/workers, negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful-drain deadline on shutdown")
		dataDir      = flag.String("data-dir", "", "journal job events and results here; empty keeps state in memory")
		fsync        = flag.Bool("fsync", true, "fsync the journal on every append (power-loss durability)")
		compactBytes = flag.Int64("compact-bytes", 8<<20, "journal segment size that triggers snapshot compaction (<0 disables)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty disables)")
		traceSpans   = flag.Int("trace-max-spans", 0, "span cap per job/sweep trace; overflow is dropped and counted (0 = default 4096)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")

		nodeID            = flag.String("node-id", "", "shard name in a cluster; prefixes job IDs (required with -peers)")
		peersFlag         = flag.String("peers", "", "comma-separated peer shards, name=url each; turns the node into a cluster entry point")
		apiKeys           = flag.String("api-keys", "", "JSON array of tenant API keys; empty disables auth")
		maxBody           = flag.Int64("max-body", service.DefaultMaxBodyBytes, "request-body size limit in bytes (oversized submits answer 413)")
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slow-loris guard)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
		probeInterval     = flag.Duration("probe-interval", 2*time.Second, "peer health-probe period")
		probeFails        = flag.Int("probe-fails", 3, "consecutive probe failures that mark a peer down")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("invalid -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		logger.Error("invalid -peers", "err", err)
		os.Exit(2)
	}
	if len(peers) > 0 && *nodeID == "" {
		logger.Error("-peers requires -node-id")
		os.Exit(2)
	}
	var tenants *service.Tenants
	if *apiKeys != "" {
		tenants, err = service.LoadTenants(*apiKeys)
		if err != nil {
			logger.Error("load API keys", "path", *apiKeys, "err", err)
			os.Exit(1)
		}
	}

	cfg := service.Config{
		Workers:           *workers,
		QueueCapacity:     *queueCap,
		CacheCapacity:     *cacheCap,
		MaxJobParallelism: *jobParallel,
		NodeID:            *nodeID,
		Tenants:           tenants,
		TraceMaxSpans:     *traceSpans,
		Logger:            logger,
	}
	// The cluster dispatch layer is built after the service (it wraps the
	// service's HTTP handler), so the read-through hook closes over a slot
	// filled in below. Submits only arrive once the listener is up, well
	// after the slot is set.
	var rt *cluster.Router
	if len(peers) > 0 {
		cfg.RemoteCache = func(key string) (json.RawMessage, bool) {
			if rt == nil {
				return nil, false
			}
			return rt.PeerCacheLookup(context.Background(), key)
		}
	}
	var closeStore func()
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{
			NoSync:       !*fsync,
			CompactBytes: *compactBytes,
			Logf: func(format string, args ...any) {
				logger.Info("store", "msg", fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			logger.Error("open store", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		cfg.Store = st
		closeStore = func() {
			if err := st.Close(); err != nil {
				logger.Error("close store", "err", err)
			}
		}
		logger.Info("journaling", "dir", *dataDir, "fsync", *fsync, "compact_bytes", *compactBytes)
	}

	svc := service.New(cfg)
	if m := svc.Snapshot(); m.ReplayedJobs > 0 {
		logger.Info("recovery replayed interrupted jobs", "jobs", m.ReplayedJobs)
	}
	api := service.NewServer(svc)
	api.MaxBodyBytes = *maxBody

	handler := http.Handler(api)
	if len(peers) > 0 {
		rt, err = cluster.NewRouter(cluster.Config{
			Shards:        append(peers, cluster.Shard{Name: *nodeID, Local: api}),
			Tenants:       tenants,
			MaxBodyBytes:  *maxBody,
			ProbeInterval: *probeInterval,
			ProbeFailures: *probeFails,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("build cluster layer", "err", err)
			os.Exit(1)
		}
		rt.Start()
		defer rt.Close()
		handler = rt
		logger.Info("cluster mode", "node", *nodeID, "peers", len(peers))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}

	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/debug/vars", expvar.Handler())
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queueCap, "cache", *cacheCap)

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "deadline", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		logger.Warn("drain", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	if closeStore != nil {
		closeStore()
	}
	logger.Info("bye")
}

// parsePeers parses "s2=http://host:8080,s3=http://host2:8080" ("" → none).
func parsePeers(s string) ([]cluster.Shard, error) {
	var out []cluster.Shard
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("malformed peer %q (want name=url)", part)
		}
		out = append(out, cluster.Shard{Name: name, URL: url})
	}
	return out, nil
}
