// Command yieldd serves the combinatorial yield method over HTTP/JSON.
//
// Clients POST a system — an ftdsl description or a named benchmark —
// together with a defect model and receive the yield, its error bound
// and optionally per-component sensitivities. Compiled models (the
// expensive ROMDD builds) are kept in a keyed LRU cache with
// single-flight deduplication, so repeated and concurrent requests for
// the same model cost one linear traversal each.
//
//	yieldd -addr :8344
//
//	curl -s localhost:8344/v1/evaluate -d '{
//	  "bench": "MS2",
//	  "defects": {"lambda": 2, "alpha": 0.25},
//	  "epsilon": 1e-4
//	}'
//
//	curl -s localhost:8344/v1/sweep -d '{
//	  "bench": "ESEN4x2",
//	  "defects": {"alpha": 2},
//	  "lambdas": [0.5, 1, 2, 4]
//	}'
//
// With -store-dir the server adds a persistent second cache tier:
// compiled models are written to disk (atomically, keyed by their
// model key), tried there before any rebuild, and preloaded into the
// in-memory cache at boot — restarts and sibling replicas sharing the
// directory skip the compile entirely. -store-max-bytes caps the
// directory as an on-disk LRU. Files saved by yieldsoc -save-model
// into the same directory are served the same way.
//
// GET /healthz is a liveness probe; GET /metrics exposes the live
// request/cache/evaluation instruments in Prometheus text format;
// GET /metrics.json returns the same registry as a JSON snapshot;
// GET /v1/builds lists the model builds in flight (phase, progress,
// ETA); GET /debug/vars serves the registry through expvar.
// SIGINT/SIGTERM drain in-flight requests before exiting; with
// -trace-out the whole lifetime is then written as a Chrome
// trace-event file (load it at ui.perfetto.dev).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"socyield/internal/cliutil"
	"socyield/internal/obs"
	"socyield/internal/server"
	"socyield/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		cacheSize  = flag.Int("cache", 32, "compiled models kept in the LRU cache")
		nodeLimit  = flag.Int("nodelimit", 0, "decision-diagram node budget per model (0 = default 8M, <0 = unlimited)")
		maxConc    = flag.Int("max-concurrent", 0, "concurrent evaluations (0 = 2×GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		sweepWork  = flag.Int("sweep-workers", 0, "worker cap for /v1/sweep (0 = all cores)")
		gracePer   = flag.Duration("grace", 10*time.Second, "shutdown drain period")
		logJSON    = flag.Bool("log-json", false, "log one JSON object per request instead of text")
		quiet      = flag.Bool("quiet", false, "disable request logging")
		slowReq    = flag.Duration("slow-request", 0, "log requests slower than this as warnings (0 = 10s default, <0 = off)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of the server's lifetime on shutdown (Perfetto-loadable)")
		samplesOut = flag.String("samples-out", "", "write the sampled metrics time series as JSONL on shutdown")
		sampleInt  = flag.Duration("sample-interval", 0, "flight-recorder sampling interval (0 = 100ms default)")
		storeDir   = flag.String("store-dir", "", "persist compiled models to this directory (second cache tier, shared across restarts and replicas)")
		storeMax   = flag.Int64("store-max-bytes", 0, "on-disk LRU size cap for -store-dir (0 = unlimited)")
	)
	flag.Parse()

	var handler slog.Handler
	switch {
	case *quiet:
		handler = nil
	case *logJSON:
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	var logger *slog.Logger
	if handler != nil {
		logger = slog.New(handler)
	}

	metrics := obs.NewRegistry()
	metrics.Publish("socyield") // live snapshot on /debug/vars

	// The flight recorder samples the registry for the server's whole
	// lifetime; the artifacts are written after the drain, so the trace
	// covers every build the server ran.
	flight := cliutil.StartFlightRecorder(metrics, *traceOut, *samplesOut, *sampleInt)

	var modelStore *store.Store
	if *storeDir != "" {
		var err error
		if modelStore, err = store.Open(*storeDir, *storeMax, metrics); err != nil {
			fmt.Fprintln(os.Stderr, "yieldd:", err)
			os.Exit(1)
		}
	} else if *storeMax != 0 {
		fmt.Fprintln(os.Stderr, "yieldd: -store-max-bytes requires -store-dir")
		os.Exit(1)
	}

	srv := server.New(server.Config{
		Addr:                 *addr,
		CacheEntries:         *cacheSize,
		NodeLimit:            *nodeLimit,
		MaxConcurrent:        *maxConc,
		RequestTimeout:       *timeout,
		SweepWorkers:         *sweepWork,
		Store:                modelStore,
		Metrics:              metrics,
		Tracer:               flight.Tracer(),
		Logger:               logger,
		ShutdownGrace:        *gracePer,
		SlowRequestThreshold: *slowReq,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := srv.ListenAndServe(ctx)
	if ferr := flight.Close(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yieldd:", err)
		os.Exit(1)
	}
}
