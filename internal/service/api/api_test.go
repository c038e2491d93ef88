// API tests run against synthetic artifacts registered only in this
// test binary (internal/experiments is deliberately not imported), so
// they exercise the serving machinery — cache identity, singleflight,
// backpressure, drain — without paying for real simulations.
package api_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swallow/internal/harness"
	"swallow/internal/report"
	"swallow/internal/service/api"
	"swallow/internal/xs1"
)

// echoRuns counts echo-artifact simulations, the singleflight probe.
var echoRuns atomic.Int64

// blockGate holds "block" artifact runs open; blockRunning signals
// each run start.
var (
	blockGate    = make(chan struct{})
	blockRunning = make(chan struct{}, 64)
)

func init() {
	harness.Register(harness.Spec[string]{
		Name:        "echo",
		Description: "test artifact echoing its config",
		Uses:        harness.UsesIters | harness.UsesGoodputPayloads | harness.UsesLatencyPlacements,
		Run: func(cfg harness.Config) (string, error) {
			echoRuns.Add(1)
			time.Sleep(5 * time.Millisecond) // widen the singleflight window
			return fmt.Sprintf("iters=%d payloads=%v placements=%v",
				cfg.Iters, cfg.GoodputPayloads, cfg.LatencyPlacements), nil
		},
		Render: func(s string) *report.Table {
			t := report.NewTable("echo", "value")
			t.AddRow(s)
			return t
		},
	})
	harness.Register(harness.Spec[int]{
		Name:        "fail",
		Description: "test artifact that always errors",
		Run:         func(harness.Config) (int, error) { return 0, fmt.Errorf("deliberate") },
		Render:      func(int) *report.Table { return report.NewTable("never") },
	})
	harness.Register(harness.Spec[int]{
		Name:        "const",
		Description: "test artifact ignoring its config entirely",
		Run:         func(harness.Config) (int, error) { return 7, nil },
		Render: func(int) *report.Table {
			t := report.NewTable("const", "v")
			t.AddRow("7")
			return t
		},
	})
	harness.Register(harness.Spec[int]{
		Name:        "badcfg",
		Description: "test artifact rejecting its config",
		Uses:        harness.UsesLatencyPlacements,
		Run: func(cfg harness.Config) (int, error) {
			return 0, fmt.Errorf("%w: no such placement", harness.ErrBadConfig)
		},
		Render: func(int) *report.Table { return report.NewTable("never") },
	})
	harness.Register(harness.Spec[int]{
		Name:        "panic",
		Description: "test artifact whose Run panics",
		Run:         func(harness.Config) (int, error) { panic("artifact blew up") },
		Render:      func(int) *report.Table { return report.NewTable("never") },
	})
	harness.Register(harness.Spec[int]{
		Name:        "block",
		Description: "test artifact gated on a channel",
		Uses:        harness.UsesIters,
		Run: func(harness.Config) (int, error) {
			blockRunning <- struct{}{}
			<-blockGate
			return 1, nil
		},
		Render: func(int) *report.Table {
			t := report.NewTable("block", "v")
			t.AddRow("done")
			return t
		},
	})
}

// newServer builds a Server + httptest listener and tears both down.
func newServer(t *testing.T, opts api.Options) (*api.Server, *httptest.Server) {
	t.Helper()
	s := api.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, body, err := fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestArtifactIndex(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	resp, body := get(t, ts.URL+"/artifacts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var idx []struct{ Name, Description, URL string }
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(harness.Artifacts()) {
		t.Fatalf("index has %d artifacts, registry %d", len(idx), len(harness.Artifacts()))
	}
	found := false
	for _, a := range idx {
		if a.Name == "echo" {
			found = true
			if a.Description == "" || a.URL != "/artifacts/echo" {
				t.Fatalf("echo row = %+v", a)
			}
		}
	}
	if !found {
		t.Fatal("echo missing from index")
	}
}

func TestRepeatedGetIsByteIdenticalCacheHit(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	r1, b1 := get(t, ts.URL+"/artifacts/echo")
	r2, b2 := get(t, ts.URL+"/artifacts/echo")
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("statuses %d %d", r1.StatusCode, r2.StatusCode)
	}
	if b1 != b2 {
		t.Fatalf("bodies diverge:\n%q\n%q", b1, b2)
	}
	if c1, c2 := r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"); c1 != "MISS" || c2 != "HIT" {
		t.Fatalf("X-Cache = %q then %q, want MISS then HIT", c1, c2)
	}
	if e1, e2 := r1.Header.Get("ETag"), r2.Header.Get("ETag"); e1 == "" || e1 != e2 {
		t.Fatalf("ETags %q vs %q", e1, e2)
	}
	if !strings.Contains(b1, fmt.Sprintf("iters=%d", harness.DefaultConfig().Iters)) {
		t.Fatalf("default config not reflected: %q", b1)
	}
}

func TestConditionalGet(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	r1, _ := get(t, ts.URL+"/artifacts/echo")
	req, _ := http.NewRequest("GET", ts.URL+"/artifacts/echo", nil)
	req.Header.Set("If-None-Match", r1.Header.Get("ETag"))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status %d, want 304", r2.StatusCode)
	}
}

func TestConfigOverridesChangeIdentity(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	_, b1 := get(t, ts.URL+"/artifacts/echo?iters=123")
	if !strings.Contains(b1, "iters=123") {
		t.Fatalf("iters override not applied: %q", b1)
	}
	r2, b2 := get(t, ts.URL+"/artifacts/echo?payloads=4,8&iters=123")
	if b1 == b2 || !strings.Contains(b2, "payloads=[4 8]") {
		t.Fatalf("payload override not applied: %q", b2)
	}
	if r2.Header.Get("X-Cache") != "MISS" {
		t.Fatal("different config must not share a cache entry")
	}
	// Same config spelled via an equivalent query ('+' decodes to
	// space, trimmed during parsing) is a hit.
	r3, b3 := get(t, ts.URL+"/artifacts/echo?iters=123&payloads=+4+,+8")
	if r3.Header.Get("X-Cache") != "HIT" || b3 != b2 {
		t.Fatalf("equivalent config missed the cache (X-Cache=%s)", r3.Header.Get("X-Cache"))
	}
}

func TestIrrelevantKnobsShareOneCacheEntry(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	// "const" ignores its whole config, so any parameter spelling must
	// project to the same cache entry.
	r1, b1 := get(t, ts.URL+"/artifacts/const")
	r2, b2 := get(t, ts.URL+"/artifacts/const?iters=999&payloads=4,8")
	if r1.StatusCode != 200 || r2.StatusCode != 200 || b1 != b2 {
		t.Fatalf("const renders diverge: %d %q vs %d %q", r1.StatusCode, b1, r2.StatusCode, b2)
	}
	if c := r2.Header.Get("X-Cache"); c != "HIT" {
		t.Fatalf("irrelevant knobs re-ran the simulation (X-Cache=%s)", c)
	}
}

func TestErrorsSurface(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	if r, _ := get(t, ts.URL+"/artifacts/no-such"); r.StatusCode != 404 {
		t.Errorf("unknown artifact: %d, want 404", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/artifacts/echo?iters=bogus"); r.StatusCode != 400 {
		t.Errorf("bad iters: %d, want 400", r.StatusCode)
	}
	// Past harness.MaxIters a load program's loop count overflows its
	// 32-bit immediate: refused in both spellings before any render.
	if r, body := get(t, ts.URL+"/artifacts/echo?iters=5000000000"); r.StatusCode != 400 || !strings.Contains(body, "bound") {
		t.Errorf("iters past the bound: %d %q, want 400", r.StatusCode, body)
	}
	if r, view := submitJob(t, ts.URL, `{"artifact":"echo","config":{"iters":5000000000}}`); r.StatusCode != 400 {
		t.Errorf("job with iters past the bound: %d %v, want 400", r.StatusCode, view)
	}
	if r, _ := get(t, ts.URL+"/artifacts/echo?payloads=-1"); r.StatusCode != 400 {
		t.Errorf("bad payloads: %d, want 400", r.StatusCode)
	}
	if r, body := get(t, ts.URL+"/artifacts/fail"); r.StatusCode != 500 || !strings.Contains(body, "deliberate") {
		t.Errorf("failing artifact: %d %q, want 500 mentioning the cause", r.StatusCode, body)
	}
	if r, _ := get(t, ts.URL+"/artifacts/echo?placements=,"); r.StatusCode != 400 {
		t.Errorf("empty placements list: %d, want 400", r.StatusCode)
	}
	// A config the artifact itself rejects is the caller's fault, not a
	// server fault.
	if r, body := get(t, ts.URL+"/artifacts/badcfg?placements=nope"); r.StatusCode != 400 || !strings.Contains(body, "placement") {
		t.Errorf("bad-config run error: %d %q, want 400", r.StatusCode, body)
	}
	if r, _ := get(t, ts.URL+"/jobs/job-999"); r.StatusCode != 404 {
		t.Errorf("unknown job: %d, want 404", r.StatusCode)
	}
}

func TestSingleflightCollapsesConcurrentIdenticalRequests(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	echoRuns.Store(0)
	const N = 12
	url := ts.URL + "/artifacts/echo?iters=777"
	bodies := make([]string, N)
	var misses atomic.Int64
	var wg sync.WaitGroup
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i] = string(b)
			if resp.Header.Get("X-Cache") == "MISS" {
				misses.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := echoRuns.Load(); n != 1 {
		t.Fatalf("%d concurrent identical requests ran the simulation %d times, want 1", N, n)
	}
	if m := misses.Load(); m != 1 {
		t.Fatalf("%d MISS responses, want exactly 1", m)
	}
	for i := 1; i < N; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d diverges:\n%q\n%q", i, bodies[i], bodies[0])
		}
	}
}

// waitJobStatus polls until the job reports status (or any terminal
// state when status is terminal-or-later semantics don't apply).
func waitJobStatus(t *testing.T, base, id, status string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, base+"/jobs/"+id)
		var view map[string]any
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatal(err)
		}
		if view["status"] == status {
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, status)
	return nil
}

func submitJob(t *testing.T, base, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var view map[string]any
	json.Unmarshal(raw, &view)
	return resp, view
}

func TestJobRoundTripMatchesSyncRender(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	resp, view := submitJob(t, ts.URL, `{"artifact":"echo","config":{"iters":555}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	id := view["id"].(string)
	done := waitJobStatus(t, ts.URL, id, "done")
	r, syncBody := get(t, ts.URL+"/artifacts/echo?iters=555")
	if done["result"] != syncBody {
		t.Fatalf("job result diverges from sync render:\n%q\n%q", done["result"], syncBody)
	}
	if done["etag"] != r.Header.Get("ETag") {
		t.Fatalf("job etag %v vs sync %q", done["etag"], r.Header.Get("ETag"))
	}
	// The job filled the cache, so the sync GET above was a HIT.
	if r.Header.Get("X-Cache") != "HIT" {
		t.Fatal("sync render after job should hit the job-filled cache")
	}

	resp, view = submitJob(t, ts.URL, `{"artifact":"fail"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	failed := waitJobStatus(t, ts.URL, view["id"].(string), "failed")
	if !strings.Contains(failed["error"].(string), "deliberate") {
		t.Fatalf("failed job view = %v", failed)
	}
}

// TestPanickingRenderIsContained: a render that panics is that
// request's 500 (with its request id, the stack in the log), not a
// wedged key — a second GET returns instead of waiting forever on the
// dead fill — and as an async job it ends failed with the process, and
// its worker pool, alive.
func TestPanickingRenderIsContained(t *testing.T) {
	var logged syncBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	_, ts := newServer(t, api.Options{})
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := client.Get(ts.URL + "/artifacts/panic")
		if err != nil {
			t.Fatalf("GET %d after a panicking render: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "artifact blew up") {
			t.Fatalf("GET %d: %d %s, want 500 naming the panic", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("GET %d: 500 carries no request id", i)
		}
	}
	if out := logged.String(); !strings.Contains(out, "artifact blew up") || !strings.Contains(out, "goroutine") {
		t.Fatalf("panic stack not logged:\n%s", out)
	}

	resp, view := submitJob(t, ts.URL, `{"artifact":"panic"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	failed := waitJobStatus(t, ts.URL, view["id"].(string), "failed")
	if !strings.Contains(failed["error"].(string), "artifact blew up") {
		t.Fatalf("failed job view = %v", failed)
	}
	// The one queue worker survived: the next job runs.
	_, view = submitJob(t, ts.URL, `{"artifact":"const"}`)
	waitJobStatus(t, ts.URL, view["id"].(string), "done")
}

func TestQueueSaturationReturns429(t *testing.T) {
	_, ts := newServer(t, api.Options{Workers: 1, QueueCapacity: 1})
	// Job 1 occupies the worker.
	resp1, v1 := submitJob(t, ts.URL, `{"artifact":"block"}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job1 status %d", resp1.StatusCode)
	}
	<-blockRunning
	// Job 2 fills the single queue slot. Its config differs from job
	// 1's so the two runs have distinct cache keys — identical ones
	// would share one fill under singleflight and run only once.
	resp2, v2 := submitJob(t, ts.URL, `{"artifact":"block","config":{"iters":99}}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job2 status %d", resp2.StatusCode)
	}
	// Job 3 is backpressure.
	resp3, v3 := submitJob(t, ts.URL, `{"artifact":"echo"}`)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d, want 429 (%v)", resp3.StatusCode, v3)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Release both blocked runs; they drain and complete.
	blockGate <- struct{}{}
	<-blockRunning
	blockGate <- struct{}{}
	waitJobStatus(t, ts.URL, v1["id"].(string), "done")
	waitJobStatus(t, ts.URL, v2["id"].(string), "done")

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "swallow_requests_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", metrics)
	}
}

func TestGracefulShutdownCompletesInFlightJob(t *testing.T) {
	s := api.New(api.Options{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, view := submitJob(t, ts.URL, `{"artifact":"block"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := view["id"].(string)
	<-blockRunning

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	blockGate <- struct{}{}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the job unblocked")
	}
	done := waitJobStatus(t, ts.URL, id, "done")
	if !strings.Contains(done["result"].(string), "done") {
		t.Fatalf("drained job result = %v", done)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	r, body := get(t, ts.URL+"/healthz")
	if r.StatusCode != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %q", r.StatusCode, body)
	}
	get(t, ts.URL+"/artifacts/echo?iters=42")
	get(t, ts.URL+"/artifacts/echo?iters=42")
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"swallow_requests_total",
		"swallow_cache_hits_total",
		"swallow_cache_hit_ratio",
		"swallow_queue_depth",
		"swallow_snapshot_taken_total",
		"swallow_snapshot_restores_total",
		"swallow_snapshot_dirty_bytes_total",
		"swallow_turbo_batches_total",
		"swallow_turbo_batched_instrs_total",
		`swallow_turbo_batch_exits_total{reason="comm_instr"}`,
		`swallow_turbo_batch_exits_total{reason="asleep"}`,
		"swallow_turbo_preexec_slots_total",
		"swallow_turbo_adopted_slots_total",
		"swallow_turbo_rotation_slots_total",
		"swallow_turbo_replayed_slots_total",
		"swallow_turbo_round_slots_total",
		"swallow_turbo_counted_slots_total",
		"swallow_turbo_fanouts_total",
		"swallow_turbo_helped_windows_total",
		`swallow_turbo_batch_len_bucket{le="1"}`,
		// The top bucket is the batch cap's.
		fmt.Sprintf(`swallow_turbo_batch_len_bucket{le="%d"}`, 1<<(xs1.BatchLenBuckets-1)),
		`swallow_turbo_batch_len_bucket{le="+Inf"}`,
		"swallow_turbo_batch_len_count",
		"swallow_turbo_decode_hits_total",
		"swallow_turbo_decode_misses_total",
		"swallow_turbo_decode_invalidated_total",
		`swallow_render_seconds_count{artifact="echo"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
