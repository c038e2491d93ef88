// Command swallow-router fronts a fleet of swallow-serve workers with
// cache-affinity routing: every render request is hashed to its
// canonical content key — the same sha256 the owning worker's result
// cache files the body under — and consistently routed to one worker,
// so each worker's cache and machine pool specialize on a slice of
// the keyspace. Because renders are strictly deterministic, any
// worker produces byte-identical bodies; routing is purely a warmth
// optimization, and failover to the ring successor when a worker dies
// or drains never changes a result.
//
// Usage:
//
//	swallow-router [-addr :9090] [-workers http://h1:8081,http://h2:8082]
//
// The ring gives each worker 128 virtual nodes; workers are probed every
// second and marked down after two failed probes; a forwarded request
// times out after 2 minutes.
//
// Workers may also self-register at runtime via POST /join (the
// swallow-serve -join flag) and deregister via POST /leave; both keep
// ring membership sticky so a bouncing worker reclaims its exact
// keyspace. The router speaks the same API as a worker — /artifacts,
// /scenarios (inline and named), /jobs, /cache/{key} — plus its own
// merged /metrics (per-worker up/latency/routed series and ring
// stats) and fleet /healthz. Every response carries X-Worker naming
// who rendered, and X-Request-ID propagates end to end.
//
// Warm handoff: on every routed render the router hands the serving
// worker an X-Swallow-Peers header naming the key's other ring
// members. A worker that misses both its memory cache and its
// persistent store asks those peers (GET /cache/{key}) before
// simulating, so a failover target reclaims the old owner's stored
// result — byte-identical by the determinism contract — instead of
// re-rendering it. Every named-scenario route (GET /scenarios, PUT/GET
// /scenarios/{name}) keys on one constant, so the name registry has one
// home worker. A job ID carries its key, so polls need no job table.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "swallow/internal/experiments" // registers the artifacts for key derivation
	"swallow/internal/service/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swallow-router: ")
	addr := flag.String("addr", ":9090", "listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs (more may join at runtime)")
	flag.Parse()

	rt := cluster.NewRouter(cluster.RouterOptions{Logf: log.Printf})
	for _, u := range strings.Split(*workers, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if _, err := rt.AddWorker(u); err != nil {
			log.Fatalf("worker %q: %v", u, err)
		}
	}
	// Admit statically-configured workers before the listener opens so
	// the first request already has a routable fleet.
	rt.ProbeAll()
	rt.Start()
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("routing on %s: workers %v", *addr, rt.WorkerStates())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case sig := <-sigc:
		log.Printf("%v: shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("stopped")
}
