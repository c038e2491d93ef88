package api

// The X-Cache states Server.render reports, the registry version the
// disk tier is bound to, and the named-scenario registry the store
// persists.

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"swallow/internal/harness"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// X-Cache states, one per tier that can satisfy a request.
const (
	cacheMemory = "HIT"      // memory LRU (or a shared in-flight fill)
	cacheDisk   = "HIT-DISK" // disk store — restart-warm, zero simulation
	cacheMiss   = "MISS"     // rendered here
)

// RegistryVersion identifies the rendering code + artifact registry
// this process serves: a hash over the build identity and the sorted
// registered artifact names. Stored results are valid exactly as long
// as this stays constant — determinism guarantees a byte-identical
// re-render within a version, and a version change (new build, new or
// removed artifacts) invalidates every stored entry at open.
func RegistryVersion() string {
	h := sha256.New()
	io.WriteString(h, "swallow-registry\x00")
	io.WriteString(h, buildVersion)
	names := append([]string(nil), harness.Names()...)
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte{0})
		io.WriteString(h, n)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// scenarioPinView is the PUT /scenarios/{name} response body.
type scenarioPinView struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Version counts pins of distinct hashes; Changed is false when
	// the submitted spec matched the current pin (idempotent re-PUT).
	Version int    `json:"version"`
	Changed bool   `json:"changed"`
	URL     string `json:"url"`
}

// handleScenarioPin pins a validated spec under a name: the name
// record holds the canonical spec of its current pin and appends a
// version whenever the hash actually changes. The pin is by-value —
// later edits to the submitted file change nothing until re-PUT — and
// GET /scenarios/{name} re-renders the pinned hash exactly.
func (s *Server) handleScenarioPin(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !store.ValidName(name) {
		cluster.WriteError(w, http.StatusBadRequest,
			"bad scenario name %q (want a letter/digit then up to 63 of [A-Za-z0-9._-])", name)
		return
	}
	body, err := cluster.ReadBody(r)
	var t cluster.Target
	if err == nil {
		// A pin names a spec, not a render: the query plays no part.
		t, err = s.resolver.Scenario(body, nil)
	}
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%v", err)
		return
	}
	rec, changed, err := s.store.PinName(name, t.Hash, t.Spec)
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, "pinning %s: %v", name, err)
		return
	}
	s.met.scenarioPins.Add(1)
	code := http.StatusOK
	if changed && rec.Version == 1 {
		code = http.StatusCreated
	}
	cluster.WriteJSON(w, code, scenarioPinView{
		Name:    rec.Name,
		Hash:    rec.Hash,
		Version: rec.Version,
		Changed: changed,
		URL:     "/scenarios/" + url.PathEscape(rec.Name),
	})
}

// handleScenarioNamed re-renders a pinned scenario by name: the
// record's canonical spec must resolve back to the pinned hash (the
// store checked its bytes; this catches a build whose canonical form
// moved), and from there it is handleScenario's path — so naming a
// submission costs nothing: both share one cache entry under the spec
// hash.
func (s *Server) handleScenarioNamed(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.NameInfo(name)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "unknown scenario name %q (GET /scenarios lists them)", name)
		return
	}
	t, err := s.resolver.Scenario(rec.Spec, r.URL.Query())
	if t.Hash != rec.Hash {
		cluster.WriteError(w, http.StatusInternalServerError,
			"stored spec for %q does not reproduce its pinned hash %.16s... (got %q, %v)", name, rec.Hash, t.Hash, err)
		return
	}
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%v", err)
		return
	}
	w.Header().Set("X-Scenario-Name", rec.Name)
	w.Header().Set("X-Scenario-Version", strconv.Itoa(rec.Version))
	s.serve(w, r, t)
}

// scenarioListEntry is one GET /scenarios row.
type scenarioListEntry struct {
	Name       string `json:"name"`
	Hash       string `json:"hash"`
	Version    int    `json:"version"`
	PinnedUnix int64  `json:"pinned_unix"`
	URL        string `json:"url"`
}

// handleScenarioList serves the pinned-name index, name-sorted.
func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	recs := s.store.Names()
	out := make([]scenarioListEntry, 0, len(recs))
	for _, rec := range recs {
		e := scenarioListEntry{
			Name:    rec.Name,
			Hash:    rec.Hash,
			Version: rec.Version,
			URL:     "/scenarios/" + url.PathEscape(rec.Name),
		}
		if n := len(rec.Versions); n > 0 {
			e.PinnedUnix = rec.Versions[n-1].PinnedUnix
		}
		out = append(out, e)
	}
	cluster.WriteJSON(w, http.StatusOK, out)
}

// handleScenarioVersions serves one name's full pin history. Every row
// moved the spec: re-pinning the hash a name holds adds no version.
func (s *Server) handleScenarioVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.NameInfo(name)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "unknown scenario name %q (GET /scenarios lists them)", name)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"name":     rec.Name,
		"hash":     rec.Hash,
		"version":  rec.Version,
		"versions": rec.Versions,
	})
}
