// Command simserved serves the simulator over HTTP: sweep jobs in, stats
// JSON out, with a content-addressed result cache so repeated cells cost
// a map probe instead of a simulation. See README's "Serving" section
// for the API and curl examples.
//
// Usage:
//
//	go run ./cmd/simserved                      # standalone on :8344
//	go run ./cmd/simserved -addr :9000 -workers 4 -queue 16
//	go run ./cmd/simserved -insns 100000 -verify -pprof
//
// With -data-dir the daemon keeps a crash-safe run journal (see
// DESIGN.md §13): accepted runs, completed cells and cache inserts are
// fsynced as they happen, and a restart on the same directory restores
// finished runs and resumes unfinished ones from their last completed
// cell:
//
//	go run ./cmd/simserved -data-dir /var/lib/simserved
//
// SIGINT/SIGTERM drains gracefully: new runs get 503, /readyz fails so
// load balancers stop routing, and in-flight runs finish before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 2, "concurrent runs")
	queue := flag.Int("queue", 0, "admitted requests bound, running plus waiting (default workers+8)")
	maxCells := flag.Int("max-cells", 4096, "per-request grid cell budget")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache bound (cells)")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful shutdown bound after SIGTERM")
	insns := cliutil.Insns(flag.CommandLine, sim.DefaultInsns)
	verify := cliutil.Verify(flag.CommandLine)
	jobs := cliutil.Jobs(flag.CommandLine)
	cellTimeout := flag.Duration("cell-timeout", 0,
		"per-cell wall-clock bound with one retry (0 = unbounded)")
	dataDir := flag.String("data-dir", "",
		"crash-safe run journal directory (empty = no journal)")
	flag.Parse()

	cfg := service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxCells:     *maxCells,
		CacheEntries: *cacheEntries,
		Parallelism:  *jobs,
		DefaultInsns: *insns,
		Verify:       *verify,
		CellTimeout:  *cellTimeout,
		EnablePprof:  *enablePprof,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		recs  []journal.Record
		stats journal.ReplayStats
	)
	if *dataDir != "" {
		var err error
		cfg.Journal, recs, stats, err = journal.OpenJournal(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simserved:", err)
			os.Exit(1)
		}
		defer cfg.Journal.Close()
		if stats.TruncatedBytes > 0 {
			fmt.Fprintf(os.Stderr, "simserved: journal: discarded %d-byte torn tail (%s)\n",
				stats.TruncatedBytes, stats.TailError)
		}
	}

	srv := service.New(cfg)
	if len(recs) > 0 {
		fmt.Fprintf(os.Stderr, "simserved: replaying %d journal records\n", stats.Records)
		resumed, err := srv.RecoverJournal(ctx, recs, stats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simserved: journal replay:", err)
		}
		if resumed > 0 {
			fmt.Fprintf(os.Stderr, "simserved: resumed %d unfinished run(s) from the journal\n", resumed)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "simserved: draining (new runs get 503; in-flight runs finish)")
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "simserved: listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "simserved:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "simserved: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simserved: drained cleanly")
}
