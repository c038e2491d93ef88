// Command swallow-serve exposes the artifact registry as an HTTP JSON
// service: every registered table and figure becomes a URL, rendered
// on demand, cached by content under the canonical (artifact, config)
// key, and deduplicated so concurrent identical requests share one
// simulation. Async rendering goes through a bounded job queue that
// answers 429 + Retry-After under saturation. See internal/service/api
// for the endpoint set.
//
// Beyond the registry, POST /scenarios compiles and runs declarative
// scenario specs (internal/scenario) with the same caching and
// singleflight guarantees, keyed on the spec's content hash. The job
// queue round-robins across job classes so submitted scenarios cannot
// starve artifact renders, and -pool-max-mb bounds the idle machine
// pool so one scenario on a big grid cannot park tens of megabytes of
// simulated SRAM for the process lifetime.
//
// Usage:
//
//	swallow-serve [-addr :8080] [-par N]
//	              [-pool-max-mb N] [-workers N] [-queue N]
//	              [-cache-mb N] [-cache-entries N]
//	              [-store-dir DIR] [-store-mb N]
//	              [-access-log=false] [-pprof]
//	              [-join URL] [-advertise URL] [-drain-notice D]
//
// Persistent store: -store-dir names a directory for the disk-backed
// artifact store, a second cache tier under the in-memory LRU. Every
// rendered body is written through to disk (atomically, checksummed),
// so a restart with the same -store-dir serves its whole keyspace as
// X-Cache: HIT-DISK without re-simulating. Entries are keyed by the
// same canonical content hash as the memory cache and invalidated
// only by registry-version changes — determinism makes them valid
// forever. -store-mb bounds the directory size (LRU eviction). The
// store also persists named scenarios (PUT /scenarios/{name}). Without
// -store-dir the store is memory-only: nothing outlives the process.
//
// Observability: every request gets an X-Request-ID (inbound value
// propagated, otherwise generated) and -access-log (default on) emits
// one structured JSON line per request to stdout — method, path,
// status, artifact, cache state, queue wait and render time — while
// operational logs stay on stderr. -pprof (default off) mounts the
// net/http/pprof handlers under /debug/pprof/ for live CPU, heap and
// goroutine profiles. GET /artifacts/{name}?trace=1 renders with the
// flight recorder attached and returns table + Chrome trace JSON as a
// multipart body (never cached; it runs beside plain requests, on a
// machine pool of its own).
//
// Cluster mode: -join http://router:9090 registers this worker with a
// swallow-router at startup (retrying until the router answers), and
// -advertise overrides the URL the router should reach it at. During
// graceful shutdown the worker first flips /healthz to 503
// {"state":"draining"} and notifies the router (POST /leave), waits
// -drain-notice so probes observe the drain, and only then closes the
// listener — so a router re-routes its keyspace before a single
// request can hit a dead socket.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight requests finish, and the job queue drains every accepted
// job before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"swallow/internal/core"
	_ "swallow/internal/experiments" // registers the artifacts
	"swallow/internal/harness"
	"swallow/internal/service/api"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// advertiseURL derives the URL a router should reach this worker at:
// the explicit -advertise value, else the listen address with an
// unspecified host replaced by 127.0.0.1.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host := addr
	if strings.HasPrefix(host, ":") {
		host = "127.0.0.1" + host
	}
	return "http://" + host
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swallow-serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "max goroutines per sweep (output is identical at any setting)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "job queue worker goroutines")
	queueCap := flag.Int("queue", 64, "job queue capacity (backpressure beyond it)")
	cacheMB := flag.Int64("cache-mb", 64, "result cache bound, MiB")
	cacheEntries := flag.Int("cache-entries", 256, "result cache bound, entries")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory (empty: memory-only)")
	storeMB := flag.Int64("store-mb", 1024, "persistent store size bound, MiB (LRU eviction)")
	poolMaxMB := flag.Int64("pool-max-mb", 256, "idle machine pool byte budget, MiB (0 = unbounded); submitted scenarios on big grids cannot park memory past it")
	drain := flag.Duration("drain", time.Minute, "graceful shutdown budget for in-flight requests")
	accessLog := flag.Bool("access-log", true, "write one structured JSON access-log line per request to stdout")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	join := flag.String("join", "", "router URL to register with at startup (cluster mode)")
	advertise := flag.String("advertise", "", "URL the router should reach this worker at (default: derived from -addr)")
	drainNotice := flag.Duration("drain-notice", 500*time.Millisecond, "cluster mode: how long /healthz advertises draining before the listener closes")
	flag.Parse()

	if *par < 1 {
		log.Fatalf("-par must be >= 1, got %d", *par)
	}
	core.SharedPool().SetLimit(*poolMaxMB << 20)

	st, err := store.Open(store.Options{
		Dir:      *storeDir,
		Version:  api.RegistryVersion(),
		MaxBytes: *storeMB << 20,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatalf("store %s: %v", *storeDir, err)
	}
	if st.Enabled() {
		ss := st.Stats()
		log.Printf("store: %s warm with %d entries / %d bytes / %d names (version %s)",
			*storeDir, ss.Entries, ss.Bytes, ss.Names, st.Version())
	}

	opts := api.Options{
		CacheBytes:    *cacheMB << 20,
		CacheEntries:  *cacheEntries,
		Workers:       *workers,
		QueueCapacity: *queueCap,
		Store:         st,
		Env:           &core.Env{Pool: core.SharedPool(), Width: *par},
	}
	if *accessLog {
		// Access logs go to stdout; the operational log stays on
		// stderr, so the two streams can be split and shipped apart.
		opts.AccessLog = os.Stdout
	}
	srv := api.New(opts)

	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %d artifacts on %s (workers=%d queue=%d cache=%dMiB/%d entries)",
		len(harness.Artifacts()), *addr, *workers, *queueCap, *cacheMB, *cacheEntries)

	self := advertiseURL(*advertise, *addr)
	if *join != "" {
		go func() {
			jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer jcancel()
			if err := cluster.Join(jctx, *join, self); err != nil {
				log.Printf("join %s: %v (serving standalone)", *join, err)
				return
			}
			log.Printf("joined router %s as %s", *join, self)
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case sig := <-sigc:
		log.Printf("%v: draining (budget %v)", sig, *drain)
	}

	// Flip /healthz to 503 draining and tell the router before the
	// listener closes: the ring re-routes this worker's keyspace while
	// requests still land on a live socket, so failover never surfaces
	// a client-visible error.
	srv.SetDraining(true)
	if *join != "" {
		lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := cluster.Leave(lctx, *join, self); err != nil {
			log.Printf("leave %s: %v", *join, err)
		}
		lcancel()
	}
	if *drainNotice > 0 {
		time.Sleep(*drainNotice)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	// Every job the queue accepted completes before exit.
	srv.Close()
	log.Printf("drained")
}
