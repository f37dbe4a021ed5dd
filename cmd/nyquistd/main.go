// Command nyquistd is the Nyquist-aware ingest/query daemon: the
// monitoring toolkit turned into a network service. External pollers
// push batches of samples over HTTP; every series gets a live §3.2
// streaming estimate, clean estimates retune the sharded store's
// multi-resolution retention (the estimate→retain loop, closed across
// the wire), and history is held in sealed Gorilla-compressed blocks.
//
// With -data-dir the daemon is restart-safe: sealed blocks and
// estimator tuning state stream into a write-ahead log with batched
// fsync (-fsync-every), a background compactor folds the log into block
// snapshots (-snapshot-every), and on boot the store and the estimators
// are rebuilt from snapshot + log. A series' open run (up to
// -compress-block unsealed points) reaches disk only inside a snapshot,
// so a SIGKILL loses, per series, exactly the points accepted after the
// later of its last seal whose record was fsynced and the last completed
// snapshot; a SIGTERM force-seals those runs and loses nothing. Without
// -data-dir it serves memory-only.
//
// The daemon also observes itself: every subsystem reports into a
// metrics registry served at GET /metrics (Prometheus text format),
// requests carry IDs through structured logs (-log-level, -slow-query),
// and -self-scrape closes the loop by periodically ingesting the
// daemon's own metrics into its own store — the estimator then watches
// the monitor like any other signal. /healthz is pure liveness;
// /readyz flips to 200 only after WAL replay, so the listener can bind
// before recovery without exposing a half-rebuilt store.
//
// Usage:
//
//	nyquistd [-addr :9464] [-shards 16] [-compress-block 128]
//	         [-window 256] [-max-series 1000000] [-max-body 8388608]
//	         [-bulk-addr ADDR]
//	         [-data-dir DIR] [-fsync-every 10ms] [-snapshot-every 60s]
//	         [-state-every 15s] [-scrub-every 60s] [-self-scrape 0]
//	         [-debug-addr ADDR] [-log-level info] [-slow-query 1s]
//
// The daemon prints "nyquistd: listening on HOST:PORT" once the socket
// is bound (use -addr 127.0.0.1:0 to pick a free port: the printed line
// is machine-parseable, which is how the CI smoke job finds it), serves
// until SIGINT/SIGTERM, then drains in-flight requests, seals and
// commits the log tail (when durable) and exits 0 with a final store
// report. See docs/API.md for the endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/wal"
)

// drainTimeout is the graceful-shutdown budget for in-flight requests.
const drainTimeout = 10 * time.Second

func main() {
	var (
		addr      = flag.String("addr", ":9464", "listen address (host:port; port 0 picks a free one)")
		shards    = flag.Int("shards", 16, "store shard count")
		compress  = flag.Int("compress-block", 128, "points per sealed block (capped at a quarter of each capacity)")
		window    = flag.Int("window", 256, fmt.Sprintf("per-series streaming-estimator window in samples (at least %d)", core.MinSamples))
		maxSeries = flag.Int("max-series", 1_000_000, "estimator series cap; new series beyond it are stored but not estimated (0 = unbounded)")
		maxBody   = flag.Int64("max-body", 8<<20, "max ingest request body in bytes")
		bulkAddr  = flag.String("bulk-addr", "", "listen address for the plain-TCP length-prefixed bulk ingest lane (empty = off)")

		dataDir       = flag.String("data-dir", "", "durability directory for the WAL and snapshots (empty = memory-only)")
		fsyncEvery    = flag.Duration("fsync-every", 10*time.Millisecond, "WAL group-commit window (negative = fsync every append)")
		snapshotEvery = flag.Duration("snapshot-every", 60*time.Second, "snapshot/compaction cadence (negative = never)")
		stateEvery    = flag.Duration("state-every", 15*time.Second, "estimator tuning-state record cadence (negative = only on shutdown/snapshot)")
		scrubEvery    = flag.Duration("scrub-every", 60*time.Second, "background CRC scrub cadence over sealed WAL segments and the newest snapshot (negative = never)")

		selfScrape = flag.Duration("self-scrape", 0, "interval for ingesting the daemon's own metrics into its own store (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "listen address for net/http/pprof (empty = off)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		slowQuery  = flag.Duration("slow-query", time.Second, "request latency that triggers a warn-level slow log (negative = off)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "nyquistd: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// A value the daemon would silently replace is a usage error: a
	// mistyped bound must not become a different bound, or none.
	for _, bad := range []struct {
		refused bool
		msg     string
	}{
		{*shards <= 0, "-shards must be positive"},
		{*compress <= 0, "-compress-block must be positive"},
		// The estimator refuses shorter windows, and a series that can
		// never lock would sit in the interval probe forever.
		{*window < core.MinSamples, fmt.Sprintf("-window must be at least %d samples", core.MinSamples)},
		{*maxSeries < 0, "-max-series must be 0 (unbounded) or positive"},
		{*maxBody <= 0, "-max-body must be positive"},
	} {
		if bad.refused {
			fmt.Fprintf(os.Stderr, "nyquistd: %s\n", bad.msg)
			os.Exit(2)
		}
	}
	store := api.ServingStore(*shards, *compress)
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{
		WindowSamples: *window,
		MaxSeries:     *maxSeries,
		EvictAfter:    -1, // idle for 4 × -max-series observations
	})

	srv := api.NewServer(api.Config{
		Store:        store,
		Estimator:    est,
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		SlowQuery:    *slowQuery,
	})

	// Bind before WAL replay: probes and /metrics can watch a long
	// recovery, while the readiness gate keeps the data endpoints at
	// 503 until the store is whole.
	if *dataDir != "" {
		srv.SetReady(false)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nyquistd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("nyquistd: listening on %s\n", ln.Addr())

	// Constants, not flags: a request body (≤ -max-body) that takes a minute
	// to arrive or a response nobody reads for a minute is a stuck peer, and
	// neither may hold its goroutine and buffers forever.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The bulk lane binds alongside the HTTP listener; frames arriving
	// before WAL replay finishes draw the same not-ready error the HTTP
	// endpoints answer with 503.
	var bulkLn net.Listener
	if *bulkAddr != "" {
		bulkLn, err = net.Listen("tcp", *bulkAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nyquistd: bulk listen %s: %v\n", *bulkAddr, err)
			os.Exit(1)
		}
		fmt.Printf("nyquistd: bulk lane on %s\n", bulkLn.Addr())
		go func() {
			if err := srv.ServeBulk(bulkLn); err != nil {
				logger.Error("bulk listener failed", "addr", bulkLn.Addr(), "err", err)
			}
		}()
	}

	var durable *wal.Durable
	if *dataDir != "" {
		durable, err = wal.Open(*dataDir, store, est, wal.Options{
			FsyncEvery:    *fsyncEvery,
			SnapshotEvery: *snapshotEvery,
			StateEvery:    *stateEvery,
			ScrubEvery:    *scrubEvery,
			SyncObserver:  srv.ObserveWALFsync,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nyquistd: open data dir: %v\n", err)
			os.Exit(1)
		}
		srv.SetDurable(durable)
		srv.SetReady(true)
		ri := durable.Replay()
		fmt.Printf("nyquistd: recovered %s: %d series, %d replayed points across %d segments (snapshot=%v, torn_tail=%v) in %v\n",
			*dataDir, ri.Series, ri.Points, ri.Segments, ri.SnapshotLoaded, ri.TornTail, ri.Duration.Round(time.Millisecond))
	}

	var scraper *api.SelfScraper
	if *selfScrape > 0 {
		scraper = srv.NewSelfScraper(*selfScrape)
		scraper.Start()
		fmt.Printf("nyquistd: self-scrape every %v\n", *selfScrape)
	}
	if *debugAddr != "" {
		// pprof rides the DefaultServeMux on its own listener, so
		// profiling never shares a port with the data plane. Bind before
		// announcing so ":0" prints the port the kernel actually picked.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nyquistd: debug listen %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				logger.Error("debug listener failed", "addr", dln.Addr(), "err", err)
			}
		}()
		fmt.Printf("nyquistd: pprof on %s/debug/pprof/\n", dln.Addr())
	}

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "nyquistd: serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("nyquistd: shutting down, draining in-flight requests")
	if bulkLn != nil {
		// Stop admitting bulk frames before the HTTP drain; pushers see
		// the close as end-of-stream and reconnect elsewhere.
		bulkLn.Close()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "nyquistd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if scraper != nil {
		// Stop before the WAL closes so the final self-samples still
		// ride the sealed tail.
		scraper.Stop()
	}
	if durable != nil {
		// Seal the active tails and commit the log so a graceful
		// restart loses nothing at all.
		if err := durable.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nyquistd: wal close: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("nyquistd: WAL sealed and committed")
	}
	st := store.Stats()
	fmt.Printf("nyquistd: served %d appends across %d series; retained %d raw + %d buckets",
		st.Appends, st.Series, st.RawPoints, st.Buckets)
	if st.RawCompressedEntries > 0 {
		fmt.Printf("; %.2f bytes/point over %d sealed points",
			float64(st.RawCompressedBytes)/float64(st.RawCompressedEntries), st.RawCompressedEntries)
	}
	if st.TierCompressedEntries > 0 {
		fmt.Printf(", %.2f bytes/bucket over %d sealed buckets",
			float64(st.TierCompressedBytes)/float64(st.TierCompressedEntries), st.TierCompressedEntries)
	}
	fmt.Println()
}
