package api

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/trace"
)

// handleArtifactTrace serves GET /artifacts/{name}?trace=1: the
// artifact rendered under a traced Env of its own (core.TracedEnv:
// serial sweeps, an empty machine pool, one flight-recorder session),
// the table and the Chrome trace-event JSON returned as two multipart
// fields. The request shares nothing with the renders beside it, so it
// runs concurrently with them and its recording is a function of the
// request alone. Traced responses are never cached and are marked
// no-store.
func (s *Server) handleArtifactTrace(w http.ResponseWriter, r *http.Request, a *harness.Artifact, cfg harness.Config) {
	cfg = a.Project(cfg)
	sess := trace.NewSession(0)
	cfg.Env = core.TracedEnv(sess)
	start := time.Now()
	t, err := a.Table(cfg)
	renderDur := time.Since(start)
	var traceBuf bytes.Buffer
	if err == nil {
		s.met.observe(a.Name, renderDur)
		err = sess.WriteChrome(&traceBuf)
	}
	if err != nil {
		writeError(w, runStatus(err), "%s: %v", a.Name, err)
		return
	}
	body := []byte(t.String())
	var out bytes.Buffer
	mw := multipart.NewWriter(&out)
	part, err := mw.CreatePart(textproto.MIMEHeader{
		"Content-Type":        {"text/plain; charset=utf-8"},
		"Content-Disposition": {`form-data; name="table"`},
	})
	if err == nil {
		_, err = part.Write(body)
	}
	if err == nil {
		part, err = mw.CreatePart(textproto.MIMEHeader{
			"Content-Type":        {"application/json"},
			"Content-Disposition": {`form-data; name="trace"`},
		})
	}
	if err == nil {
		_, err = part.Write(traceBuf.Bytes())
	}
	if err == nil {
		err = mw.Close()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s: assembling trace response: %v", a.Name, err)
		return
	}
	setTimingHeaders(w, start, renderDur)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Cache", "BYPASS")
	w.Header().Set("Content-Type", "multipart/form-data; boundary="+mw.Boundary())
	w.Write(out.Bytes())
}
