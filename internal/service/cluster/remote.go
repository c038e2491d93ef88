package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"
)

// Transport-level failures (connect refused, reset before any
// response) are re-sent sendRetries times, the first after
// retryBackoff, doubling per attempt. Worker-returned statuses are
// never retried — a 400 or 429 is an answer, not a failure.
const (
	sendRetries  = 2
	retryBackoff = 50 * time.Millisecond
)

// Remote is the router's client to one swallow-serve worker: requests
// forwarded over its public API with per-worker connection reuse (a
// dedicated pooled transport), a request timeout, and bounded
// retry-with-backoff on connect failure.
type Remote struct {
	base   *url.URL
	client *http.Client
}

// forwardTimeout bounds one proxied render: renders simulate.
const forwardTimeout = 2 * time.Minute

// NewRemote builds a Remote for the worker at baseURL
// (e.g. http://127.0.0.1:8081). timeout bounds one HTTP exchange end
// to end (<= 0: forwardTimeout).
func NewRemote(baseURL string, timeout time.Duration) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad worker url %q: %v", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: bad worker url %q: need scheme://host:port", baseURL)
	}
	if timeout <= 0 {
		timeout = forwardTimeout
	}
	transport := &http.Transport{
		// One worker behind this transport: keep a healthy idle pool
		// so the router's steady-state forwards reuse connections.
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
	}
	return &Remote{base: u, client: &http.Client{Transport: transport, Timeout: timeout}}, nil
}

// Name identifies the worker: its host:port.
func (r *Remote) Name() string { return r.base.Host }

// URL returns the worker base URL string.
func (r *Remote) URL() string { return r.base.String() }

// Do sends one request to the worker with bounded
// retry-with-backoff on transport failure. body may be nil; it must
// be fully buffered so retries can replay it. The response body is
// the caller's to close.
func (r *Remote) Do(ctx context.Context, method, path string, query url.Values, header http.Header, body []byte) (*http.Response, error) {
	u := *r.base
	u.Path = path
	u.RawQuery = query.Encode()
	var lastErr error
	backoff := retryBackoff
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		resp, err := r.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// The worker never answered: worth re-sending — unless the
		// caller cancelled or ran out of time, which is no worker fault.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
	}
	return nil, lastErr
}

// errorBody extracts the worker's JSON error message, falling back to
// the raw body.
func errorBody(resp *http.Response) string {
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(blob))
}

// Healthz probes the worker. A 503 carrying state "draining" is a
// successful probe of a draining worker, not an error; transport
// failures are errors (the worker is unreachable).
func (r *Remote) Healthz(ctx context.Context) (Health, error) {
	resp, err := r.Do(ctx, http.MethodGet, "/healthz", nil, nil, nil)
	if err != nil {
		return Health{}, fmt.Errorf("cluster: healthz on %s: %w", r.Name(), err)
	}
	defer resp.Body.Close()
	var h Health
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h)
	if resp.StatusCode != http.StatusOK && h.State != StateDraining {
		return Health{}, fmt.Errorf("cluster: healthz on %s: %s", r.Name(), resp.Status)
	}
	return h, nil
}
