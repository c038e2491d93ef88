// Command swallow-load drives a running swallow-serve with a
// configurable artifact mix and reports throughput and tail latency —
// the ReqBench shape: a workload description, a concurrency knob, and
// a closed request loop: -c workers each issue requests back-to-back,
// so offered load adapts to service rate.
//
// Usage:
//
//	swallow-load [-url http://localhost:8080] [-c 4] [-n 100 | -d 10s]
//	             [-artifacts regexp] [-json]
//	             [-scenario spec.json[,spec2.json...]]
//
// The artifact mix is discovered from GET /artifacts, filtered by
// -artifacts, and cycled round-robin so runs are reproducible.
// -scenario adds declarative spec files to the mix as POST /scenarios
// submissions — the ReqBench-style novel-configuration stress: every
// round fires the same spec, so the first submission simulates and
// the rest exercise the spec-hash cache path. Every response is
// checked (status 200, a non-empty body whose sha256 is its ETag) and
// X-Cache headers are tallied by tier — HIT (memory), HIT-DISK
// (persistent store), HIT-PEER (filled from a ring peer's store), MISS
// (simulated) — so the report shows where each answer came from,
// overall and per worker. cache_hits counts memory hits only; the
// disk/peer tiers report separately.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// target is one endpoint in the request mix: a GET of an artifact URL
// or, when body is non-nil, a POST /scenarios submission.
type target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Body []byte `json:"-"`
}

// sample is one completed request. queueUs/renderUs are the server's
// own decomposition of its time, read from the X-Queue-Micros /
// X-Render-Micros response headers (zero against servers predating
// them).
type sample struct {
	latency  time.Duration
	bytes    int64
	cache    string // X-Cache verdict: HIT | HIT-DISK | HIT-PEER | MISS
	worker   string // X-Worker: who rendered (routed deployments)
	queueUs  int64
	renderUs int64
	err      error
}

// workerStats tallies one worker's share of a routed run, split by
// cache tier. CacheHits counts memory hits only (the historical
// meaning); disk and peer fills report separately.
type workerStats struct {
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	DiskHits  int64 `json:"disk_hits,omitempty"`
	PeerHits  int64 `json:"peer_hits,omitempty"`
	Misses    int64 `json:"misses,omitempty"`
}

// stats is the aggregated run report.
type stats struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	CacheHits  int64   `json:"cache_hits"`
	DiskHits   int64   `json:"disk_hits"`
	PeerHits   int64   `json:"peer_hits"`
	Misses     int64   `json:"misses"`
	Bytes      int64   `json:"bytes"`
	WallS      float64 `json:"wall_s"`
	Throughput float64 `json:"throughput_rps"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
	// Server-side split, means over successful requests: time the
	// server spent waiting/overhead vs simulating, and what remains
	// of client latency after both (network + client stack).
	ServerQueueMeanMS  float64  `json:"server_queue_mean_ms"`
	ServerRenderMeanMS float64  `json:"server_render_mean_ms"`
	ClientOverheadMS   float64  `json:"client_overhead_mean_ms"`
	Artifacts          []string `json:"artifacts"`
	// Workers splits the run per X-Worker responder — populated only
	// when the server names one (a swallow-router fleet, or a worker
	// answering through one). With cache-affinity routing each
	// artifact's repeats should pile onto a single worker and hit.
	Workers map[string]*workerStats `json:"workers,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swallow-load: ")
	baseURL := flag.String("url", "http://localhost:8080", "swallow-serve base URL")
	conc := flag.Int("c", 4, "closed-loop worker count")
	n := flag.Int64("n", 100, "total requests (0: unbounded, needs -d; ignored when only -d is given)")
	dur := flag.Duration("d", 0, "run duration (0: until -n requests)")
	only := flag.String("artifacts", "", "regexp selecting the artifact mix (default: all)")
	scenarios := flag.String("scenario", "", "comma-separated scenario spec files to POST as part of the mix")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	flag.Parse()

	// -d without an explicit -n means "run for the duration": drop the
	// default request cap so a 100-request default can't silently end a
	// timed run early.
	if *dur > 0 {
		nSet := false
		flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
		if !nSet {
			*n = 0
		}
	}
	if *n <= 0 && *dur <= 0 {
		log.Fatal("need -n > 0 or -d > 0")
	}
	if *conc < 1 {
		log.Fatal("-c must be >= 1")
	}
	client := &http.Client{Timeout: *timeout}

	mix, err := discover(client, *baseURL, *only)
	if err != nil {
		log.Fatal(err)
	}
	if *scenarios != "" {
		specs, err := loadScenarios(*baseURL, *scenarios)
		if err != nil {
			log.Fatal(err)
		}
		mix = append(mix, specs...)
	}

	start := time.Now()
	samples := run(client, mix, *conc, *n, *dur)
	wall := time.Since(start)
	st := reduce(samples, mix, wall)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	} else {
		report(st)
	}
	if st.Errors > 0 {
		os.Exit(1)
	}
}

// discover fetches the artifact index and filters the mix.
func discover(client *http.Client, base, pattern string) ([]target, error) {
	resp, err := client.Get(base + "/artifacts")
	if err != nil {
		return nil, fmt.Errorf("discover: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("discover: GET /artifacts: %s", resp.Status)
	}
	var idx []struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		return nil, fmt.Errorf("discover: decode /artifacts: %v", err)
	}
	var filter *regexp.Regexp
	if pattern != "" {
		if filter, err = regexp.Compile(pattern); err != nil {
			return nil, fmt.Errorf("bad -artifacts pattern: %v", err)
		}
	}
	var mix []target
	for _, a := range idx {
		if filter == nil || filter.MatchString(a.Name) {
			mix = append(mix, target{Name: a.Name, URL: base + a.URL})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("no artifact matches -artifacts %q", pattern)
	}
	return mix, nil
}

// loadScenarios reads spec files into POST /scenarios mix targets.
func loadScenarios(base, paths string) ([]target, error) {
	var out []target
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, target{
			Name: "scenario:" + strings.TrimSuffix(filepath.Base(path), ".json"),
			URL:  base + "/scenarios",
			Body: blob,
		})
	}
	return out, nil
}

// fetch issues one request (GET, or POST for scenario targets),
// measures it and checks the answer.
func fetch(client *http.Client, t target) sample {
	start := time.Now()
	var resp *http.Response
	var err error
	if t.Body != nil {
		resp, err = client.Post(t.URL, "application/json", bytes.NewReader(t.Body))
	} else {
		resp, err = client.Get(t.URL)
	}
	if err != nil {
		return sample{latency: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	sum := sha256.New()
	nbytes, err := io.Copy(sum, resp.Body)
	s := sample{
		latency: time.Since(start),
		bytes:   nbytes,
		cache:   resp.Header.Get("X-Cache"),
		worker:  resp.Header.Get("X-Worker"),
		err:     err,
	}
	s.queueUs, _ = strconv.ParseInt(resp.Header.Get("X-Queue-Micros"), 10, 64)
	s.renderUs, _ = strconv.ParseInt(resp.Header.Get("X-Render-Micros"), 10, 64)
	if err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s: %s", t.Name, resp.Status)
	}
	if s.err == nil && nbytes == 0 {
		s.err = fmt.Errorf("%s: empty body", t.Name)
	}
	if etag := resp.Header.Get("ETag"); s.err == nil && etag != `"`+hex.EncodeToString(sum.Sum(nil))+`"` {
		s.err = fmt.Errorf("%s: ETag %s is not the body's sha256", t.Name, etag)
	}
	return s
}

// run drives the closed loop — conc workers back-to-back — and returns
// every sample. Request i always targets mix[i % len(mix)], so the mix
// is deterministic for a given -n whatever the interleaving.
func run(client *http.Client, mix []target, conc int, n int64, dur time.Duration) []sample {
	var next atomic.Int64
	var deadline time.Time
	if dur > 0 {
		deadline = time.Now().Add(dur)
	}
	stopped := func() bool { return dur > 0 && time.Now().After(deadline) }

	var mu sync.Mutex
	var samples []sample
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(conc)
	for w := 0; w < conc; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if (n > 0 && i >= n) || stopped() {
					return
				}
				record(fetch(client, mix[i%int64(len(mix))]))
			}
		}()
	}
	wg.Wait()
	return samples
}

// reduce aggregates samples into the run report.
func reduce(samples []sample, mix []target, wall time.Duration) stats {
	var st stats
	st.WallS = wall.Seconds()
	st.Artifacts = make([]string, len(mix))
	for i, t := range mix {
		st.Artifacts[i] = t.Name
	}
	lats := make([]time.Duration, 0, len(samples))
	var sum time.Duration
	var queueUs, renderUs int64
	for _, s := range samples {
		st.Requests++
		if s.err != nil {
			st.Errors++
			log.Printf("error: %v", s.err)
			continue
		}
		switch s.cache {
		case "HIT":
			st.CacheHits++
		case "HIT-DISK":
			st.DiskHits++
		case "HIT-PEER":
			st.PeerHits++
		case "MISS":
			st.Misses++
		}
		if s.worker != "" {
			if st.Workers == nil {
				st.Workers = make(map[string]*workerStats)
			}
			ws := st.Workers[s.worker]
			if ws == nil {
				ws = &workerStats{}
				st.Workers[s.worker] = ws
			}
			ws.Requests++
			switch s.cache {
			case "HIT":
				ws.CacheHits++
			case "HIT-DISK":
				ws.DiskHits++
			case "HIT-PEER":
				ws.PeerHits++
			case "MISS":
				ws.Misses++
			}
		}
		st.Bytes += s.bytes
		lats = append(lats, s.latency)
		sum += s.latency
		queueUs += s.queueUs
		renderUs += s.renderUs
	}
	if n := int64(len(lats)); n > 0 {
		st.ServerQueueMeanMS = float64(queueUs) / float64(n) / 1e3
		st.ServerRenderMeanMS = float64(renderUs) / float64(n) / 1e3
	}
	if st.WallS > 0 {
		st.Throughput = float64(st.Requests-st.Errors) / st.WallS
	}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		idx := int(q * float64(len(lats)-1))
		return lats[idx].Seconds() * 1e3
	}
	st.MeanMS = sum.Seconds() * 1e3 / float64(len(lats))
	if over := st.MeanMS - st.ServerQueueMeanMS - st.ServerRenderMeanMS; over > 0 {
		st.ClientOverheadMS = over
	}
	st.P50MS = pct(0.50)
	st.P95MS = pct(0.95)
	st.P99MS = pct(0.99)
	st.MaxMS = lats[len(lats)-1].Seconds() * 1e3
	return st
}

// report prints the human-readable summary.
func report(st stats) {
	fmt.Printf("artifacts (%d): %v\n", len(st.Artifacts), st.Artifacts)
	fmt.Printf("requests: %d   errors: %d   bytes: %d\n",
		st.Requests, st.Errors, st.Bytes)
	fmt.Printf("cache: memory %d   disk %d   peer %d   miss %d\n",
		st.CacheHits, st.DiskHits, st.PeerHits, st.Misses)
	fmt.Printf("wall: %.3fs   throughput: %.1f req/s\n", st.WallS, st.Throughput)
	fmt.Printf("latency ms: mean %.2f   p50 %.2f   p95 %.2f   p99 %.2f   max %.2f\n",
		st.MeanMS, st.P50MS, st.P95MS, st.P99MS, st.MaxMS)
	fmt.Printf("server split ms: queue-wait %.2f   render %.2f   client overhead %.2f\n",
		st.ServerQueueMeanMS, st.ServerRenderMeanMS, st.ClientOverheadMS)
	if len(st.Workers) > 0 {
		names := make([]string, 0, len(st.Workers))
		for name := range st.Workers {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("worker split:")
		for _, name := range names {
			ws := st.Workers[name]
			fmt.Printf("   %s %d req / %d mem / %d disk / %d peer / %d miss",
				name, ws.Requests, ws.CacheHits, ws.DiskHits, ws.PeerHits, ws.Misses)
		}
		fmt.Println()
	}
}
