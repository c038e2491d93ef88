package api_test

import (
	"bytes"
	"encoding/json"
	"mime"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"swallow/internal/service/api"
)

// syncBuffer lets the test read access-log lines the server goroutine
// writes without racing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDAndTimingHeaders covers the per-request telemetry
// surface: every response carries an X-Request-ID (generated when the
// client sends none, propagated verbatim when it does) plus the
// X-Queue-Micros / X-Render-Micros server-time split.
func TestRequestIDAndTimingHeaders(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	resp, _ := get(t, ts.URL+"/artifacts/const")
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID on a plain GET")
	}
	if resp.Header.Get("X-Render-Micros") == "" || resp.Header.Get("X-Queue-Micros") == "" {
		t.Errorf("timing headers missing: render=%q queue=%q",
			resp.Header.Get("X-Render-Micros"), resp.Header.Get("X-Queue-Micros"))
	}

	req, err := http.NewRequest("GET", ts.URL+"/artifacts/const", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "upstream-trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "upstream-trace-42" {
		t.Errorf("inbound request id not propagated: got %q", got)
	}
}

// TestAccessLog verifies the structured JSON access log: one parseable
// line per request with method, path, status, artifact, cache state
// and the queue/render split.
func TestAccessLog(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newServer(t, api.Options{AccessLog: &logBuf})
	get(t, ts.URL+"/artifacts/const")
	get(t, ts.URL+"/artifacts/const") // second hit: X-Cache HIT in the log

	// logAccess runs after the handler writes the response, so the line
	// can trail the client's read slightly.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for {
		lines = nil
		for _, l := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lines) < 2 {
		t.Fatalf("want 2 access-log lines, got %d: %q", len(lines), logBuf.String())
	}
	var rec struct {
		ID       string `json:"id"`
		Method   string `json:"method"`
		Path     string `json:"path"`
		Status   int    `json:"status"`
		Artifact string `json:"artifact"`
		Cache    string `json:"cache"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("access-log line is not JSON: %v\n%s", err, lines[1])
	}
	if rec.Method != "GET" || rec.Path != "/artifacts/const" || rec.Status != 200 {
		t.Errorf("access record = %+v", rec)
	}
	if rec.Artifact != "const" {
		t.Errorf("artifact = %q, want const", rec.Artifact)
	}
	if rec.Cache != "HIT" {
		t.Errorf("second request cache = %q, want HIT", rec.Cache)
	}
	if rec.ID == "" {
		t.Error("access record has no request id")
	}
}

// TestTraceEndpoint covers GET /artifacts/{name}?trace=1: a multipart
// body whose table part matches the plain render byte-for-byte and
// whose trace part is well-formed Chrome trace-event JSON, never
// cached.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	_, plain := get(t, ts.URL+"/artifacts/const")

	resp, body := get(t, ts.URL+"/artifacts/const?trace=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
		t.Errorf("X-Cache = %q, want BYPASS", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", got)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err != nil || mt != "multipart/form-data" {
		t.Fatalf("Content-Type = %q (%v)", resp.Header.Get("Content-Type"), err)
	}
	table, trace, err := traceParts(resp, body)
	if err != nil {
		t.Fatal(err)
	}
	if table != plain {
		t.Errorf("traced table differs from plain render:\n--- plain ---\n%s\n--- traced ---\n%s", plain, table)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("trace part is not valid Chrome trace JSON: %v", err)
	}
}

// TestMetricsTelemetry checks the /metrics additions: build info,
// uptime, and the render-latency histogram with cumulative buckets.
func TestMetricsTelemetry(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	get(t, ts.URL+"/artifacts/const")
	_, body := get(t, ts.URL+"/metrics")

	for _, want := range []string{
		"swallow_build_info{version=",
		"swallow_uptime_seconds ",
		`swallow_render_seconds_bucket{artifact="const",le="+Inf"} 1`,
		`swallow_render_seconds_count{artifact="const"} 1`,
		`swallow_render_seconds_sum{artifact="const"}`,
		"# TYPE swallow_render_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
