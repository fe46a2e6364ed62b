// Command sslserve runs the model-serving HTTP server: fit graph-SSL models
// over JSON, hot-swap them in a registry, and answer multi-point
// out-of-sample predictions.
//
// Usage:
//
//	sslserve [-addr :8080] [-queue 1024] [-workers 1] [-cache-size 8192]
//	         [-model-budget 0] [-ingest-queue 4096] [-fit-timeout 120s]
//	         [-drain-timeout 30s]
//
// Endpoints:
//
//	POST   /v1/models/{name}  fit and publish a model (atomic hot swap)
//	GET    /v1/models         list published models
//	GET    /v1/models/{name}  describe one model
//	DELETE /v1/models/{name}  unpublish a model
//	POST   /v1/predict        multi-point inductive prediction
//	POST   /v1/ingest         append labeled points to a streaming model
//	GET    /healthz           process liveness
//	GET    /readyz            readiness (503 while draining)
//	GET    /debug/vars        expvar metrics (graphssl.serve.*)
//
// On SIGINT/SIGTERM the server drains gracefully: readiness flips to 503,
// in-flight requests finish, the streaming ingest workers apply every
// admitted point, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sslserve:", err)
		os.Exit(1)
	}
}

// run boots the server and blocks until ctx is canceled and the drain
// completes. ready, when non-nil, is called with the bound address once the
// server is accepting connections (tests use it with -addr :0).
func run(ctx context.Context, args []string, logw io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("sslserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		queueDepth   = fs.Int("queue", 1024, "max uncached points under evaluation (excess gets 429)")
		workers      = fs.Int("workers", 1, "evaluation workers (<=0 = all cores)")
		cacheSize    = fs.Int("cache-size", 8192, "prediction cache entries (negative disables)")
		modelBudget  = fs.Int("model-budget", 0, "max in-flight uncached points per model (0 = unlimited)")
		ingestQueue  = fs.Int("ingest-queue", 4096, "max in-flight streaming ingest points per model (excess gets 429)")
		fitTimeout   = fs.Duration("fit-timeout", 120*time.Second, "per-request fit timeout")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown drain budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.NewServer(serve.Config{
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		CacheSize:   *cacheSize,
		ModelBudget: *modelBudget,
		IngestQueue: *ingestQueue,
		FitTimeout:  *fitTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "sslserve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop being ready, let in-flight handlers finish,
	// then drain the ingest workers so no admitted point is dropped.
	fmt.Fprintln(logw, "sslserve: draining")
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(logw, "sslserve: drained")
	return nil
}
