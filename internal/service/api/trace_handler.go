package api

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"time"

	"swallow/internal/core"
	"swallow/internal/service/cluster"
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
func (s *Server) handleArtifactTrace(w http.ResponseWriter, t cluster.Target) {
	sess := trace.NewSession(0)
	t.Config.Env = core.TracedEnv(sess)
	start := time.Now()
	res, err := t.Run()
	renderDur := time.Duration(res.RenderMicros) * time.Microsecond
	var traceBuf bytes.Buffer
	if err == nil {
		s.met.observe(t.Label, renderDur)
		err = sess.WriteChrome(&traceBuf)
	}
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%s: %v", t.Class, err)
		return
	}
	// The parts are written to a bytes.Buffer, which cannot fail.
	var out bytes.Buffer
	mw := multipart.NewWriter(&out)
	for _, p := range []struct {
		name, ctype string
		data        []byte
	}{
		{"table", "text/plain; charset=utf-8", res.Body},
		{"trace", "application/json", traceBuf.Bytes()},
	} {
		part, _ := mw.CreatePart(textproto.MIMEHeader{
			"Content-Type":        {p.ctype},
			"Content-Disposition": {`form-data; name="` + p.name + `"`},
		})
		part.Write(p.data)
	}
	mw.Close()
	setTimingHeaders(w, start, renderDur)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Cache", "BYPASS")
	w.Header().Set("Content-Type", "multipart/form-data; boundary="+mw.Boundary())
	w.Write(out.Bytes())
}
