package api

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Request-scoped telemetry: every request gets an X-Request-ID
// (propagated from the client when present, generated otherwise) and,
// when Options.AccessLog is set, one structured JSON log line.

// statusWriter captures status and body size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// accessRecord is one access-log line. Cache, queue-wait and render
// figures are read back from the response headers the handlers set,
// so the logger needs no side channel into them.
type accessRecord struct {
	Time     string  `json:"time"`
	ID       string  `json:"id"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	DurMs    float64 `json:"dur_ms"`
	Artifact string  `json:"artifact,omitempty"`
	Cache    string  `json:"cache,omitempty"`
	QueueUs  int64   `json:"queue_us,omitempty"`
	RenderUs int64   `json:"render_us,omitempty"`
}

// logAccess writes the structured line for one finished request.
func (s *Server) logAccess(w *statusWriter, r *http.Request, id string, start time.Time) {
	if s.accessLog == nil {
		return
	}
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	rec := accessRecord{
		Time:   start.UTC().Format(time.RFC3339Nano),
		ID:     id,
		Method: r.Method,
		Path:   r.URL.Path,
		Status: status,
		Bytes:  w.bytes,
		DurMs:  float64(time.Since(start).Microseconds()) / 1000,
		Cache:  w.Header().Get("X-Cache"),
	}
	if name := strings.TrimPrefix(r.URL.Path, "/artifacts/"); name != r.URL.Path && name != "" {
		rec.Artifact = name
	} else if h := w.Header().Get("X-Scenario-Hash"); h != "" {
		rec.Artifact = "scenario:" + h[:min(12, len(h))]
	}
	rec.QueueUs, _ = strconv.ParseInt(w.Header().Get("X-Queue-Micros"), 10, 64)
	rec.RenderUs, _ = strconv.ParseInt(w.Header().Get("X-Render-Micros"), 10, 64)
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.accessLog.Write(append(line, '\n'))
}
