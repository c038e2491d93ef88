package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"swallow/internal/service/api"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// firstPort is where the fleet listens: the router on firstPort and
// worker i on firstPort+1+i. A worker's ring position is a hash of its
// host:port, so fixed ports give the same key-to-worker map on every
// run; a port already taken falls back to one the kernel picks.
const firstPort = 39360

// fleetWorkers is the number of api.Server workers behind the router.
const fleetWorkers = 2

// node is one listening HTTP server of the fleet.
type node struct {
	name string // host:port, as X-Worker reports it
	url  string
	srv  *http.Server
	done chan struct{}
}

func startNode(h http.Handler, port int) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	n := &node{name: ln.Addr().String(), url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns once stop closes the server
	}()
	return n, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (n *node) stop() {
	_ = n.srv.Close()
	<-n.done
}

// fleet is the deployment the serve workloads drive, in this process:
// a cluster.Router in front of api.Server workers, each with its own
// disk store, all over loopback TCP as the real binaries would be.
type fleet struct {
	dir     string
	router  *cluster.Router
	front   *node
	workers []*node
	apis    []*api.Server
}

// startFleet brings the fleet up with stores under a fresh directory.
// cacheEntries bounds each worker's memory cache (0: the default).
func startFleet(cacheEntries int) (*fleet, error) {
	dir, err := os.MkdirTemp(buildDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, router: cluster.NewRouter(cluster.RouterOptions{})}
	for i := 0; i < fleetWorkers; i++ {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, fmt.Sprintf("worker%d", i)), Version: api.RegistryVersion()})
		if err != nil {
			f.stop()
			return nil, err
		}
		// Queue sizing as swallow-serve's defaults.
		srv := api.New(api.Options{CacheEntries: cacheEntries, Store: st,
			Workers: runtime.GOMAXPROCS(0), QueueCapacity: 64})
		f.apis = append(f.apis, srv)
		n, err := startNode(srv.Handler(), firstPort+1+i)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, n)
		if _, err := f.router.AddWorker(n.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	// One synchronous probe admits the workers; the periodic probe loop
	// is not started, so no health traffic lands in the timed phase.
	f.router.ProbeAll()
	if f.front, err = startNode(f.router, firstPort); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the fleet down, waits for its servers and removes its
// stores.
func (f *fleet) stop() {
	if f.front != nil {
		f.front.stop()
	}
	f.router.Close()
	for _, n := range f.workers {
		n.stop()
	}
	for _, s := range f.apis {
		s.Close()
	}
	_ = os.RemoveAll(f.dir)
}

// scrape reads a /metrics page into a map; series with labels are
// skipped.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// counters sums the workers' /metrics pages.
func (f *fleet) counters(client *http.Client) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, n := range f.workers {
		m, err := scrape(client, n.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
