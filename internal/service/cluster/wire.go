package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// The HTTP conventions a worker and the router in front of it share:
// how a body is read, how JSON and errors are written, what a request
// ID looks like.

// MaxBodyBytes bounds a request body — a scenario spec or a job.
const MaxBodyBytes = 1 << 20

// ReadBody reads a request body of at most MaxBodyBytes; a longer one
// is refused (413) rather than truncated.
func ReadBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, badRequest("reading request body: %v", err)
	}
	if len(body) > MaxBodyBytes {
		return nil, &requestError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes)}
	}
	return body, nil
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes a JSON error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ProcessStart anchors uptime metrics and, with the pid, goes into
// minted request and job IDs, so lines from different processes on one
// box stay distinguishable when logs merge.
var ProcessStart = time.Now()

// nonce tells IDs minted by this process from any other's.
var nonce = fmt.Sprintf("%x-%x", os.Getpid(), ProcessStart.UnixNano()&0xffffff)

// RequestID returns the inbound X-Request-ID if it is usable (short,
// printable) or mints one from prefix, this process and seq.
func RequestID(r *http.Request, prefix string, seq *atomic.Uint64) string {
	id := r.Header.Get("X-Request-ID")
	usable := id != "" && len(id) <= 64
	for i := 0; usable && i < len(id); i++ {
		usable = id[i] > ' ' && id[i] <= '~'
	}
	if usable {
		return id
	}
	return fmt.Sprintf("%s%s-%x", prefix, nonce, seq.Add(1))
}

// jobSeq numbers the jobs this process accepts. It is one counter for
// the process, not one per Server, because every Server in a process
// shares its nonce: workers of an in-process fleet mint distinct IDs
// for one key too.
var jobSeq atomic.Uint64

// JobID mints the ID of a job filed under key: the key, this process's
// nonce and a sequence number, joined by dashes. IDs are unique across
// workers and restarts, and a router routes a poll by the key alone.
func JobID(key string) string { return fmt.Sprintf("%s-%s-%x", key, nonce, jobSeq.Add(1)) }

// JobKey returns the key an ID minted by JobID carries; ok is false
// for any other string.
func JobKey(id string) (key string, ok bool) {
	f := strings.Split(id, "-")
	ok = len(f) == 4 && len(f[0]) == 64
	for _, s := range f {
		ok = ok && s != "" && strings.Trim(s, "0123456789abcdef") == ""
	}
	if !ok {
		return "", false
	}
	return f[0], true
}
