// Command somad serves SoMa scheduling as a service: an HTTP JSON API over a
// bounded async job queue, with cancellable searches and one process-wide
// evaluation cache shared across requests. See docs/api.md for the endpoint
// contract.
//
// Examples:
//
//	somad                                   # listen on :8080, 1 worker
//	somad -addr 127.0.0.1:9000 -workers 4
//	somad -cache-entries 1048576            # bigger shared eval cache
//
// Cluster mode (docs/cluster.md): start N workers with -worker, then point a
// coordinator at them - its sweep jobs shard across the workers and merge
// back into journals byte-identical to single-process runs:
//
//	somad -addr 127.0.0.1:8871 -worker
//	somad -addr 127.0.0.1:8872 -worker
//	somad -addr 127.0.0.1:8844 -workers 127.0.0.1:8871,127.0.0.1:8872
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"model":"resnet50","batch":1,"hw":"edge","params":{"profile":"fast"}}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"scenario":"multi-tenant-cnn","params":{"profile":"fast"}}'
//	curl -s -X POST localhost:8080/v1/sweeps \
//	  -d '{"models":["resnet50"],"dram_gbps":[8,16,32],"gbuf_mb":[4,8]}'
//	curl -s localhost:8080/v1/scenarios
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/sweeps/sweep-000002
//	curl -sN localhost:8080/v1/sweeps/sweep-000002/events
//	curl -s localhost:8080/metrics                       # Prometheus exposition
//	curl -s localhost:8080/v1/jobs/job-000001/trace      # Perfetto trace JSON
//	go tool pprof localhost:8080/debug/pprof/profile     # CPU profile
//
// Observability (docs/observability.md): /metrics serves the search and
// service counters in Prometheus text format, each job serves its solve
// trace as Chrome trace-event JSON, and the stdlib pprof/expvar handlers
// are mounted under /debug/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soma/internal/cluster"
	"soma/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.String("workers", "1", "concurrent search jobs (a number), or comma-separated cluster worker addresses to shard sweep jobs across")
	queue := flag.Int("queue", 64, "max queued jobs before submits get 503")
	cacheEntries := flag.Int("cache-entries", 0, "shared evaluation cache capacity (0 = default)")
	maxJobs := flag.Int("max-jobs", 0, "job-table retention bound; oldest finished jobs are evicted beyond it (0 = default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	worker := flag.Bool("worker", false, "serve cluster lease execution (this somad computes sweep points for a remote coordinator)")
	flag.Parse()

	poolWorkers, workerList, err := cluster.ParseWorkers(*workers)
	if err != nil {
		fatal(err)
	}

	svc := service.New(service.Config{
		Workers:        poolWorkers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		MaxJobs:        *maxJobs,
		ClusterWorker:  *worker,
		ClusterWorkers: workerList,
	})
	srv := newServer(*addr, svc.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	mode := ""
	if *worker {
		mode = ", cluster worker"
	}
	if len(workerList) > 0 {
		mode = fmt.Sprintf(", coordinating %d cluster workers", len(workerList))
	}
	log.Printf("somad listening on %s (%d workers, queue %d%s)", *addr, poolWorkers, *queue, mode)

	select {
	case <-ctx.Done():
		log.Printf("somad: shutting down (drain %s)", *drain)
	case err := <-errc:
		fatal(err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Cancel jobs first: that unblocks ?wait=1 handlers, so the HTTP
	// drain below completes instead of riding out the whole timeout.
	svc.Stop()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("somad: http shutdown: %v", err)
	}
	// Wait for the worker pool to notice the cancellations and exit.
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("somad: job drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// Connection timeouts. A client gets readHeaderTimeout to deliver a
// request's headers, so a slow or stalled client cannot hold a connection
// open without sending a request; an idle keep-alive connection closes after
// idleTimeout. Request bodies and responses are left unbounded in time:
// ?wait=1 submissions and the SSE event streams legitimately stay open for
// as long as a job runs, and body size is bounded by the handlers.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the HTTP server somad listens with.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "somad:", err)
	os.Exit(1)
}
