// End-to-end cluster tests: real api.Server workers behind httptest
// listeners, fronted by Remotes and a Router. Like the api
// tests, the artifacts are synthetic and registered only in this test
// binary, so the suite exercises routing, affinity, failover and
// drain without paying for real simulations.
package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swallow/internal/harness"
	"swallow/internal/report"
	"swallow/internal/service/api"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

func init() {
	harness.Register(harness.Spec[string]{
		Name:        "echo",
		Description: "test artifact echoing its config",
		UsesIters:   true,
		Run: func(cfg harness.Config) (string, error) {
			return fmt.Sprintf("iters=%d", cfg.Iters), nil
		},
		Render: func(s string) *report.Table {
			t := report.NewTable("echo", "value")
			t.AddRow(s)
			return t
		},
	})
	harness.Register(harness.Spec[int]{
		Name:        "const",
		Description: "test artifact ignoring its config",
		Run:         func(harness.Config) (int, error) { return 7, nil },
		Render: func(int) *report.Table {
			t := report.NewTable("const", "v")
			t.AddRow("7")
			return t
		},
	})
	harness.Register(harness.Spec[int]{
		Name:        "fail",
		Description: "test artifact that always errors",
		Run:         func(harness.Config) (int, error) { return 0, fmt.Errorf("deliberate") },
		Render:      func(int) *report.Table { return report.NewTable("never") },
	})
}

// newWorker spins up one real serving process: api.Server + listener.
func newWorker(t *testing.T, opts api.Options) (*api.Server, *httptest.Server) {
	t.Helper()
	s := api.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// newRouter builds a router fronting the given worker URLs, probed
// once so the fleet is routable, plus its own listener.
func newRouter(t *testing.T, opts cluster.RouterOptions, workerURLs ...string) (*cluster.Router, *httptest.Server) {
	t.Helper()
	rt := cluster.NewRouter(opts)
	for _, u := range workerURLs {
		if _, err := rt.AddWorker(u); err != nil {
			t.Fatal(err)
		}
	}
	rt.ProbeAll()
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	t.Cleanup(rt.Close)
	return rt, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestLocalBackendMatchesDirect: the extracted Local backend renders
// exactly what the registry renders directly.
func TestLocalBackendMatchesDirect(t *testing.T) {
	local := cluster.NewLocal()
	cfg := harness.Config{Iters: 123}
	res, err := local.Render(context.Background(), cluster.Request{Artifact: "echo", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	a := harness.Lookup("echo")
	tbl, err := a.Table(a.Project(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != tbl.String() {
		t.Fatalf("Local render differs from direct render:\n%s\nvs\n%s", res.Body, tbl.String())
	}
	if _, err := local.Render(context.Background(), cluster.Request{Artifact: "nope"}); !errors.Is(err, cluster.ErrUnknownArtifact) {
		t.Fatalf("unknown artifact: got %v; want ErrUnknownArtifact", err)
	}
}

// TestRemoteDrainHealthz: a draining worker's 503 {"state":
// "draining"} is a successful probe reporting drain, not an error.
func TestRemoteDrainHealthz(t *testing.T) {
	srv, ts := newWorker(t, api.Options{})
	remote, err := cluster.NewRemote(ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDraining(true)
	h, err := remote.Healthz(context.Background())
	if err != nil {
		t.Fatalf("draining probe errored: %v", err)
	}
	if h.State != cluster.StateDraining {
		t.Fatalf("state = %q; want draining", h.State)
	}
}

// flakyListener closes its first fail connections immediately, so the
// client sees transport errors before any HTTP response — the exact
// failure mode the Remote's bounded retry-with-backoff must absorb.
type flakyListener struct {
	net.Listener
	fail  int32
	tries atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return c, err
		}
		if l.tries.Add(1) <= l.fail {
			c.Close()
			continue
		}
		return c, nil
	}
}

// TestRemoteRetryOnConnectFailure: two killed connections, then
// success — the request succeeds without the caller seeing either
// failure.
func TestRemoteRetryOnConnectFailure(t *testing.T) {
	srv := api.New(api.Options{})
	t.Cleanup(srv.Close)
	fl := &flakyListener{fail: 2}
	var err error
	fl.Listener, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := httptest.NewUnstartedServer(srv.Handler())
	flaky.Listener.Close()
	flaky.Listener = fl
	flaky.Start()
	t.Cleanup(flaky.Close)

	remote, err := cluster.NewRemote(flaky.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := remote.Do(context.Background(), http.MethodGet, "/artifacts/const", nil, nil, nil)
	if err != nil {
		t.Fatalf("render through flaky listener: %v (after %d accepts)", err, fl.tries.Load())
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "7") {
		t.Fatalf("unexpected response: %s, %v: %s", resp.Status, err, body)
	}
	if fl.tries.Load() < 3 {
		t.Fatalf("expected >= 3 connection attempts, saw %d", fl.tries.Load())
	}
}

// TestRouterAffinityAndFailover is the cluster's core contract in one
// flow: repeated identical requests ride one warm worker (same
// X-Worker, HITs after the first), and killing that worker fails over
// to the ring successor with zero client-visible errors and an
// identical body.
func TestRouterAffinityAndFailover(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	rt, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	url := rts.URL + "/artifacts/echo?iters=321"
	var owner string
	var firstBody string
	for i := 0; i < 4; i++ {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %s: %s", i, resp.Status, body)
		}
		wk := resp.Header.Get("X-Worker")
		if wk == "" {
			t.Fatalf("request %d: no X-Worker stamp", i)
		}
		switch i {
		case 0:
			owner, firstBody = wk, body
			if c := resp.Header.Get("X-Cache"); c != "MISS" {
				t.Fatalf("first request X-Cache = %q; want MISS", c)
			}
		default:
			if wk != owner {
				t.Fatalf("request %d landed on %s; want affinity to %s", i, wk, owner)
			}
			if c := resp.Header.Get("X-Cache"); c != "HIT" {
				t.Fatalf("request %d X-Cache = %q; want HIT on the warm worker", i, c)
			}
			if body != firstBody {
				t.Fatalf("request %d body differs from first", i)
			}
		}
	}

	// Kill the owner; the very next request must succeed on the
	// survivor with the identical body.
	if owner == hostOf(w1.URL) {
		w1.Close()
	} else {
		w2.Close()
	}
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill request failed: %s: %s", resp.Status, body)
	}
	survivor := resp.Header.Get("X-Worker")
	if survivor == owner || survivor == "" {
		t.Fatalf("post-kill request served by %q; want the other worker", survivor)
	}
	if body != firstBody {
		t.Fatal("failover changed the response body; renders must be deterministic")
	}
	if got := rt.WorkerStates()[owner]; got != "down" {
		t.Fatalf("killed worker state = %q; want down after data-path failure", got)
	}
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// TestRouterDrain: a worker that reports draining stops receiving new
// requests after the next probe, while requests keep succeeding on
// the survivor.
func TestRouterDrain(t *testing.T) {
	s1, w1 := newWorker(t, api.Options{})
	s2, w2 := newWorker(t, api.Options{})
	rt, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	resp, _ := get(t, rts.URL+"/artifacts/const")
	owner := resp.Header.Get("X-Worker")
	if owner == hostOf(w1.URL) {
		s1.SetDraining(true)
	} else {
		s2.SetDraining(true)
	}
	rt.ProbeAll()
	if st := rt.WorkerStates()[owner]; st != "draining" {
		t.Fatalf("owner state = %q after drain probe; want draining", st)
	}
	for i := 0; i < 3; i++ {
		resp, body := get(t, rts.URL+"/artifacts/const")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request during drain: %s: %s", resp.Status, body)
		}
		if wk := resp.Header.Get("X-Worker"); wk == owner {
			t.Fatalf("request %d routed to draining worker %s", i, owner)
		}
	}
}

// TestRouterScenario: spec submissions route by content hash with the
// same affinity and caching as artifact renders, and the body matches
// a direct worker submission byte for byte.
func TestRouterScenario(t *testing.T) {
	const spec = `{
		"name": "links-probe",
		"grid": {"slices_x": 1, "slices_y": 1},
		"workload": {
			"structure": "traffic",
			"flows": [{
				"src": {"x": 0, "y": 0, "layer": "V"},
				"dst": {"x": 0, "y": 0, "layer": "H"},
				"tokens": 400, "packet_tokens": 20
			}]
		},
		"sweep": [{"param": "links", "ints": [1, 4]}]
	}`
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	post := func(url string) (*http.Response, string) {
		resp, err := http.Post(url+"/scenarios?iters=5000", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}
	resp, routed := post(rts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed scenario: %s: %s", resp.Status, routed)
	}
	owner := resp.Header.Get("X-Worker")
	if owner == "" || resp.Header.Get("X-Scenario-Hash") == "" {
		t.Fatalf("missing routing metadata: worker=%q hash=%q", owner, resp.Header.Get("X-Scenario-Hash"))
	}
	resp2, again := post(rts.URL)
	if resp2.Header.Get("X-Worker") != owner || resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeat scenario: worker=%q cache=%q; want %q + HIT",
			resp2.Header.Get("X-Worker"), resp2.Header.Get("X-Cache"), owner)
	}
	if again != routed {
		t.Fatal("repeat scenario body differs")
	}
	// Byte-identical to a direct submission on either worker.
	_, direct := post(w1.URL)
	if routed != direct {
		t.Fatalf("routed body differs from direct:\n%s\nvs\n%s", routed, direct)
	}
}

// TestRouterJobs: async submissions land on the keyed worker and the
// poll returns to the same process even though job IDs are
// worker-local.
func TestRouterJobs(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	resp, err := http.Post(rts.URL+"/jobs", "application/json",
		strings.NewReader(`{"artifact": "echo", "config": {"iters": 55}}`))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, blob)
	}
	owner := resp.Header.Get("X-Worker")
	var view struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Result string `json:"result"`
	}
	if err := json.Unmarshal(blob, &view); err != nil || view.ID == "" {
		t.Fatalf("submit body %s: %v", blob, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := get(t, rts.URL+"/jobs/"+view.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %s: %s", resp.Status, body)
		}
		if wk := resp.Header.Get("X-Worker"); wk != owner {
			t.Fatalf("poll landed on %q; job lives on %q", wk, owner)
		}
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatal(err)
		}
		if view.Status == "done" {
			if !strings.Contains(view.Result, "iters=55") {
				t.Fatalf("job result %q missing render", view.Result)
			}
			return
		}
		if view.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterJobPollDuringProbe polls a recorded job while the health
// probe rewrites worker states: under -race, a poll that reads its
// worker's state outside the router's lock is a reported data race.
func TestRouterJobPollDuringProbe(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	rt, rts := newRouter(t, cluster.RouterOptions{}, w1.URL)
	resp, err := http.Post(rts.URL+"/jobs", "application/json", strings.NewReader(`{"artifact": "const"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || view.ID == "" {
		t.Fatalf("submit: %s: %+v, %v", resp.Status, view, err)
	}

	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for i := 0; i < 20; i++ {
			rt.ProbeAll()
		}
	}()
	for i := 0; i < 20; i++ {
		if resp, body := get(t, rts.URL+"/jobs/"+view.ID); resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %d: %s: %s", i, resp.Status, body)
		}
	}
	<-probed
}

// pollJob polls one job at base until it finishes and returns the
// worker that answered and the rendered result.
func pollJob(t *testing.T, base, id string) (string, string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, body := get(t, base+"/jobs/"+id)
		var view struct{ Status, Result string }
		if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &view) != nil {
			t.Fatalf("poll %s: %s: %s", id, resp.Status, body)
		}
		if view.Status == "done" {
			return resp.Header.Get("X-Worker"), view.Result
		}
		if view.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %s", id, body)
		}
	}
}

// TestRouterJobPollsReachTheirOwnJob: each worker mints its own job
// IDs, so two workers' jobs must never be mistaken for each other.
// Echo jobs go in until both workers have accepted one; a poll of each
// through the router, and through a second router over the same fleet
// (a router restart: it has seen no submission), answers with that
// job's own render from the worker that accepted it.
func TestRouterJobPollsReachTheirOwnJob(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)
	type job struct {
		id    string
		iters int
	}
	first := map[string]job{} // worker → the first job it accepted
	for iters := 1; len(first) < 2; iters++ {
		if iters > 64 {
			t.Fatalf("64 keys all landed on %v", first)
		}
		resp, err := http.Post(rts.URL+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"artifact": "echo", "config": {"iters": %d}}`, iters)))
		if err != nil {
			t.Fatal(err)
		}
		var view struct{ ID string }
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || view.ID == "" {
			t.Fatalf("submit iters=%d: %s: %+v, %v", iters, resp.Status, view, err)
		}
		if wk := resp.Header.Get("X-Worker"); first[wk].id == "" {
			first[wk] = job{view.ID, iters}
		}
	}
	_, restarted := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)
	for _, front := range []string{rts.URL, restarted.URL} {
		for owner, j := range first {
			wk, result := pollJob(t, front, j.id)
			if want := fmt.Sprintf("iters=%d ", j.iters); wk != owner || !strings.Contains(result, want) {
				t.Errorf("poll of %s (iters=%d, on %s) answered from %s with %q", j.id, j.iters, owner, wk, result)
			}
		}
	}
	// An ID no worker can have minted is the router's own 404.
	if resp, body := get(t, rts.URL+"/jobs/job-1"); resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Worker") != "" {
		t.Errorf("poll of job-1: %s from %q: %s; want the router's 404", resp.Status, resp.Header.Get("X-Worker"), body)
	}
}

// TestRouterRequestIDAndTrace: X-Request-ID propagates client →
// router → worker → response, and ?trace=1 renders its multipart
// bundle on the owning worker through the router.
func TestRouterRequestIDAndTrace(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL)

	req, _ := http.NewRequest(http.MethodGet, rts.URL+"/artifacts/const", nil)
	req.Header.Set("X-Request-ID", "cluster-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "cluster-test-42" {
		t.Fatalf("X-Request-ID = %q; want the inbound id echoed end-to-end", id)
	}

	resp, body := get(t, rts.URL+"/artifacts/const?trace=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced render: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "multipart/") {
		t.Fatalf("traced render Content-Type = %q; want multipart", ct)
	}
	if c := resp.Header.Get("X-Cache"); c != "BYPASS" {
		t.Fatalf("traced render X-Cache = %q; want BYPASS", c)
	}
}

// TestRouterErrorsRelayedVerbatim: worker-produced statuses are
// answers, not failures — no failover, body passed through.
func TestRouterErrorsRelayedVerbatim(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL)

	resp, body := get(t, rts.URL+"/artifacts/nope")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "unknown artifact") {
		t.Fatalf("unknown artifact: %s: %s", resp.Status, body)
	}
	resp, body = get(t, rts.URL+"/artifacts/echo?iters=banana")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "iters") {
		t.Fatalf("bad config must forward to the worker's 400: %s: %s", resp.Status, body)
	}
	resp, _ = get(t, rts.URL+"/artifacts/fail")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing artifact: %s; want 500 relayed", resp.Status)
	}
}

// TestRouterNoWorkers: an empty (or fully dead) fleet answers 503.
func TestRouterNoWorkers(t *testing.T) {
	_, rts := newRouter(t, cluster.RouterOptions{})
	resp, body := get(t, rts.URL+"/artifacts/const")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet: %s: %s; want 503", resp.Status, body)
	}
	resp, body = get(t, rts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("empty-fleet healthz: %s: %s; want degraded 503", resp.Status, body)
	}
}

// TestRouterJoinLeave: workers self-register over HTTP and deregister
// into draining, exactly as swallow-serve -join does.
func TestRouterJoinLeave(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	rt, rts := newRouter(t, cluster.RouterOptions{})

	ctx := context.Background()
	if err := cluster.Join(ctx, rts.URL, w1.URL); err != nil {
		t.Fatal(err)
	}
	name := hostOf(w1.URL)
	if st := rt.WorkerStates()[name]; st != "healthy" {
		t.Fatalf("joined worker state = %q; want healthy (join probes inline)", st)
	}
	resp, _ := get(t, rts.URL+"/artifacts/const")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Worker") != name {
		t.Fatalf("routing after join: %s via %q", resp.Status, resp.Header.Get("X-Worker"))
	}

	if err := cluster.Leave(ctx, rts.URL, w1.URL); err != nil {
		t.Fatal(err)
	}
	if st := rt.WorkerStates()[name]; st != "draining" {
		t.Fatalf("left worker state = %q; want draining", st)
	}
}

// TestRouterMetrics: the merged metrics expose ring stats and
// per-worker series, and a routed cold miss costs the fleet one worker
// request: the worker that renders it, and no other.
func TestRouterMetrics(t *testing.T) {
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	workers := []string{w1.URL, w2.URL}
	_, rts := newRouter(t, cluster.RouterOptions{}, workers...)
	const misses = 20
	before := workerRequests(t, workers...)
	for i := 0; i < misses; i++ {
		resp, body := get(t, fmt.Sprintf("%s/artifacts/echo?iters=%d", rts.URL, 1000+i))
		if c := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || c != "MISS" {
			t.Fatalf("cold request %d: %s, X-Cache %q: %s", i, resp.Status, c, body)
		}
	}
	if got := workerRequests(t, workers...) - before - len(workers); got != misses {
		t.Fatalf("%d routed cold misses cost the workers %d requests; want %d", misses, got, misses)
	}

	_, body := get(t, rts.URL+"/metrics")
	for _, want := range []string{
		"swallow_router_requests_total",
		"swallow_router_failovers_total",
		"swallow_router_ring_members 2",
		"swallow_router_ring_vnodes 256",
		"swallow_router_worker_up{worker=",
		"swallow_router_worker_routed_total{worker=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestWorkerDrainHealthz: the api server's drain flag flips /healthz
// to 503 {"state":"draining"} and refuses new jobs, then recovers.
func TestWorkerDrainHealthz(t *testing.T) {
	srv, ts := newWorker(t, api.Options{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthy: %s: %s", resp.Status, body)
	}

	srv.SetDraining(true)
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining healthz: %s: %s; want 503 draining", resp.Status, body)
	}
	jr, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"artifact": "const"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jr.Body)
	jr.Body.Close()
	if jr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %s; want 503", jr.Status)
	}

	srv.SetDraining(false)
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered healthz: %s; want 200", resp.Status)
	}
}

// storeAt opens a disk-backed store over dir for one test worker,
// bound to the live registry version like swallow-serve -store-dir.
func storeAt(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Version: api.RegistryVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// workerRequests sums swallow_requests_total over the given workers.
// Each worker counts its own /metrics read, so two calls differ by the
// requests served in between plus one per worker.
func workerRequests(t *testing.T, workers ...string) int {
	t.Helper()
	sum := 0
	for _, u := range workers {
		_, body := get(t, u+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			var n int
			if _, err := fmt.Sscanf(line, "swallow_requests_total %d", &n); err == nil {
				sum += n
			}
		}
	}
	return sum
}

// TestRouterPeerFillOnDrain: when a key's owner drains, the survivor
// fills nothing from it — not even from the owner's disk store, which
// still holds the key and still answers HTTP. The survivor renders the
// key once (MISS) to the owner's bytes, the owner sees no request for
// it, and every later request is the survivor's memory HIT.
func TestRouterPeerFillOnDrain(t *testing.T) {
	s1, w1 := newWorker(t, api.Options{Store: storeAt(t, t.TempDir())})
	s2, w2 := newWorker(t, api.Options{Store: storeAt(t, t.TempDir())})
	rt, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	url := rts.URL + "/artifacts/echo?iters=77"
	resp, want := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: %s: %s", resp.Status, want)
	}
	if c := resp.Header.Get("X-Cache"); c != "MISS" {
		t.Fatalf("warm request X-Cache = %q; want MISS", c)
	}
	owner := resp.Header.Get("X-Worker")
	ownerURL := w2.URL
	if owner == hostOf(w1.URL) {
		s1.SetDraining(true)
		ownerURL = w1.URL
	} else {
		s2.SetDraining(true)
	}
	rt.ProbeAll()
	if st := rt.WorkerStates()[owner]; st != "draining" {
		t.Fatalf("owner state = %q; want draining", st)
	}

	before := workerRequests(t, ownerURL)
	for i := 0; i < 2; i++ {
		resp, got := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover request %d: %s: %s", i, resp.Status, got)
		}
		if survivor := resp.Header.Get("X-Worker"); survivor == owner || survivor == "" {
			t.Fatalf("failover request %d served by %q; want the survivor", i, survivor)
		}
		wantCache := "HIT"
		if i == 0 {
			wantCache = "MISS"
		}
		if c := resp.Header.Get("X-Cache"); c != wantCache {
			t.Fatalf("failover request %d X-Cache = %q; want %q", i, c, wantCache)
		}
		if got != want {
			t.Fatalf("failover request %d: survivor's body differs from the owner's", i)
		}
	}
	if n := workerRequests(t, ownerURL) - before - 1; n != 0 {
		t.Fatalf("the drained owner served %d requests during failover; want 0", n)
	}
}

// TestRouterNamedScenario: names share one home, so the pin and every
// later render of a named scenario land on one worker — the one that
// persisted the name — and the rendered body matches the anonymous
// submission of the same spec.
func TestRouterNamedScenario(t *testing.T) {
	const spec = `{
		"name": "links-probe",
		"grid": {"slices_x": 1, "slices_y": 1},
		"workload": {
			"structure": "traffic",
			"flows": [{
				"src": {"x": 0, "y": 0, "layer": "V"},
				"dst": {"x": 0, "y": 0, "layer": "H"},
				"tokens": 400, "packet_tokens": 20
			}]
		},
		"sweep": [{"param": "links", "ints": [1, 4]}]
	}`
	_, w1 := newWorker(t, api.Options{Store: storeAt(t, t.TempDir())})
	_, w2 := newWorker(t, api.Options{Store: storeAt(t, t.TempDir())})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)

	req, err := http.NewRequest(http.MethodPut, rts.URL+"/scenarios/probe?iters=5000", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pinBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pin: %s: %s", resp.Status, pinBody)
	}
	pinWorker := resp.Header.Get("X-Worker")
	if pinWorker == "" {
		t.Fatal("pin response lacks X-Worker")
	}

	// Renders by name land on the pinning worker (same routing key).
	resp, named := get(t, rts.URL+"/scenarios/probe?iters=5000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named render: %s: %s", resp.Status, named)
	}
	if wk := resp.Header.Get("X-Worker"); wk != pinWorker {
		t.Fatalf("named render on %q; want the pinning worker %q", wk, pinWorker)
	}
	if resp.Header.Get("X-Scenario-Name") != "probe" {
		t.Fatalf("X-Scenario-Name = %q", resp.Header.Get("X-Scenario-Name"))
	}

	// Byte-identical to the anonymous submission of the same spec.
	ar, err := http.Post(rts.URL+"/scenarios?iters=5000", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	anon, _ := io.ReadAll(ar.Body)
	ar.Body.Close()
	if named != string(anon) {
		t.Fatal("named render differs from anonymous submission")
	}

	// The versions listing routes to the same worker and reports the pin.
	resp, versions := get(t, rts.URL+"/scenarios/probe/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions: %s: %s", resp.Status, versions)
	}
	if wk := resp.Header.Get("X-Worker"); wk != pinWorker {
		t.Fatalf("versions on %q; want %q", wk, pinWorker)
	}
	if !strings.Contains(versions, `"version": 1`) {
		t.Fatalf("versions body: %s", versions)
	}
}

// TestRouterNamesShareOneHome: sixteen names pinned through the router
// all come back in the routed GET /scenarios, and each name's pin,
// render and version history answer from one worker.
func TestRouterNamesShareOneHome(t *testing.T) {
	const spec = `{
		"name": "links-probe",
		"grid": {"slices_x": 1, "slices_y": 1},
		"workload": {
			"structure": "traffic",
			"flows": [{
				"src": {"x": 0, "y": 0, "layer": "V"},
				"dst": {"x": 0, "y": 0, "layer": "H"},
				"tokens": 400, "packet_tokens": 20
			}]
		},
		"sweep": [{"param": "links", "ints": [1, 4]}]
	}`
	_, w1 := newWorker(t, api.Options{})
	_, w2 := newWorker(t, api.Options{})
	_, rts := newRouter(t, cluster.RouterOptions{}, w1.URL, w2.URL)
	var names []string
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("probe-%02d", i)
		names = append(names, name)
		req, err := http.NewRequest(http.MethodPut, rts.URL+"/scenarios/"+name, strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		pin, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, pin.Body)
		pin.Body.Close()
		render, _ := get(t, rts.URL+"/scenarios/"+name+"?iters=5000")
		versions, _ := get(t, rts.URL+"/scenarios/"+name+"/versions")
		if pin.StatusCode != http.StatusCreated || render.StatusCode != http.StatusOK || versions.StatusCode != http.StatusOK {
			t.Fatalf("%s: pin %s, render %s, versions %s", name, pin.Status, render.Status, versions.Status)
		}
		if p, r, v := pin.Header.Get("X-Worker"), render.Header.Get("X-Worker"), versions.Header.Get("X-Worker"); p != r || p != v {
			t.Errorf("%s: pin on %s, render on %s, versions on %s; want one worker", name, p, r, v)
		}
	}
	_, list := get(t, rts.URL+"/scenarios")
	var rows []struct{ Name string }
	if err := json.Unmarshal([]byte(list), &rows); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, row := range rows {
		listed = append(listed, row.Name)
	}
	if fmt.Sprint(listed) != fmt.Sprint(names) {
		t.Fatalf("routed GET /scenarios lists %d names %v; want all %d %v", len(listed), listed, len(names), names)
	}
}
