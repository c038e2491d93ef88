package api

// The tiered result path and its endpoints: memory LRU → disk store →
// peer cache ask → render, plus the named-scenario registry
// the store persists. With a memory-only store (no -store-dir) the
// disk and peer tiers are inert and the pipeline degenerates to the
// original two-state HIT/MISS cache.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/service/cache"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// X-Cache states, one per tier that can satisfy a request.
const (
	cacheMemory = "HIT"      // memory LRU (or a shared in-flight fill)
	cacheDisk   = "HIT-DISK" // disk store — restart-warm, zero simulation
	cachePeer   = "HIT-PEER" // a ring peer's cache — warm handoff, zero simulation
	cacheMiss   = "MISS"     // rendered here
)

// maxPeerBody bounds a peer-fill response body.
const maxPeerBody = 16 << 20

// maxPeerAsks bounds how many peers one miss consults.
const maxPeerAsks = 3

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

// fillTiered is the shared render pipeline under the memory cache's
// singleflight: the fill first consults the disk store, then asks the
// listed peers, and only then renders in process (persisting
// the result). The returned state names the tier that produced the
// body; singleflight followers and memory hits report HIT. Peer- and
// disk-served bodies are verified (sha256) before use, so every state
// serves bytes identical to a cold render.
func (s *Server) fillTiered(key, metricLabel, storeLabel string, spec []byte, peers []string,
	run func() (cluster.Result, error)) (cache.Entry, string, time.Duration, error) {
	state := cacheMiss
	var renderDur time.Duration
	entry, hit, err := s.cache.GetOrFill(key, func() ([]byte, error) {
		if ent, ok := s.store.Get(key); ok {
			state = cacheDisk
			return ent.Body, nil
		}
		if body, ok := s.peerFill(key, peers); ok {
			state = cachePeer
			// Adopt the peer's entry locally so the warm handoff
			// persists across this worker's own restarts.
			s.store.Put(key, body, store.Meta{Artifact: storeLabel, Spec: spec})
			return body, nil
		}
		res, err := run()
		if err != nil {
			return nil, err
		}
		renderDur = time.Duration(res.RenderMicros) * time.Microsecond
		s.met.observe(metricLabel, renderDur)
		s.store.Put(key, res.Body, store.Meta{
			Artifact:     storeLabel,
			Spec:         spec,
			Metrics:      res.Metrics,
			RenderMicros: res.RenderMicros,
		})
		return res.Body, nil
	})
	if hit {
		state = cacheMemory
	}
	return entry, state, renderDur, err
}

// peerList parses the X-Swallow-Peers request header (comma-separated
// base URLs, set by a fronting router) into the ordered peer-ask
// list. Requests arriving without the header — direct clients, async
// jobs — get no peer tier.
func peerList(r *http.Request) []string {
	raw := r.Header.Get("X-Swallow-Peers")
	if raw == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(raw, ",") {
		p = strings.TrimSpace(p)
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			continue
		}
		out = append(out, p)
		if len(out) == maxPeerAsks {
			break
		}
	}
	return out
}

// peerFill asks each peer in order for key via GET /cache/{key},
// returning the first verified body. A peer answer counts only if it
// carries this registry version and its body hashes to its ETag —
// anything else (older build, torn transfer) falls through to the
// next peer or to a local render.
func (s *Server) peerFill(key string, peers []string) ([]byte, bool) {
	for _, peer := range peers {
		if body, ok := s.askPeer(peer, key); ok {
			s.met.peerFill()
			return body, true
		}
	}
	if len(peers) > 0 {
		s.met.peerFillMiss()
	}
	return nil, false
}

// askPeer performs one peer cache read.
func (s *Server) askPeer(base, key string) ([]byte, bool) {
	u, err := url.Parse(strings.TrimSuffix(base, "/") + "/cache/" + key)
	if err != nil {
		return nil, false
	}
	resp, err := s.peers.Get(u.String())
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	if resp.Header.Get("X-Store-Version") != s.version {
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil || len(body) == 0 || len(body) > maxPeerBody {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != trimETag(resp.Header.Get("ETag")) {
		return nil, false
	}
	return body, true
}

// trimETag strips strong-ETag quotes.
func trimETag(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// handleCacheGet serves one cached/stored result to a ring peer (or
// any client holding the content key). It reads the memory cache
// without disturbing recency or hit accounting, then the disk store.
// It answers even while draining — handing warm results to the ring
// successor is precisely what a draining or freshly restarted worker
// is still good for. X-Store-Version lets the asker reject results
// from a different registry version.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "bad cache key (want 64 hex chars)")
		return
	}
	w.Header().Set("X-Store-Version", s.version)
	if ent, ok := s.cache.Peek(key); ok {
		s.writeStoredBody(w, ent.Body, ent.ContentHash, cacheMemory)
		return
	}
	if ent, ok := s.store.Get(key); ok {
		s.writeStoredBody(w, ent.Body, ent.ContentHash, cacheDisk)
		return
	}
	writeError(w, http.StatusNotFound, "key not cached on this worker")
}

func (s *Server) writeStoredBody(w http.ResponseWriter, body []byte, contentHash, state string) {
	w.Header().Set("ETag", `"`+contentHash+`"`)
	w.Header().Set("X-Cache", state)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

// scenarioNameRE is the PUT /scenarios/{name} grammar: a letter or
// digit, then up to 63 more of [A-Za-z0-9._-]. It is file-name safe
// by construction (the store re-validates).
var scenarioNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

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

// handleScenarioPin pins a validated spec under a name: the canonical
// spec persists in the store under its content hash, and the name
// record appends a version whenever the hash actually changes. The
// pin is by-value — later edits to the submitted file change nothing
// until re-PUT — and GET /scenarios/{name} re-renders the pinned
// hash exactly.
func (s *Server) handleScenarioPin(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !scenarioNameRE.MatchString(name) {
		writeError(w, http.StatusBadRequest,
			"bad scenario name %q (want a letter/digit then up to 63 of [A-Za-z0-9._-])", name)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, runStatus(err), "%v", err)
		return
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		writeError(w, runStatus(err), "%v", err)
		return
	}
	canonical, err := json.Marshal(c.Spec.Canonical())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "canonicalizing spec: %v", err)
		return
	}
	if err := s.store.PutSpec(c.Hash, canonical); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting spec: %v", err)
		return
	}
	rec, changed, err := s.store.PinName(name, c.Hash)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "pinning %s: %v", name, err)
		return
	}
	s.met.scenarioPin()
	code := http.StatusOK
	if changed && rec.Version == 1 {
		code = http.StatusCreated
	}
	writeJSON(w, code, scenarioPinView{
		Name:    rec.Name,
		Hash:    rec.Hash,
		Version: rec.Version,
		Changed: changed,
		URL:     "/scenarios/" + url.PathEscape(rec.Name),
	})
}

// handleScenarioNamed re-renders a pinned scenario by name: the
// stored canonical spec is recompiled, re-verified against the pinned
// hash (a store that cannot reproduce the hash is corrupt and must
// not serve under the name), and rendered through the same tiered
// pipeline as a direct POST /scenarios — so renaming a submission
// costs nothing: both share one cache entry under the spec hash.
func (s *Server) handleScenarioNamed(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.NameInfo(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario name %q (GET /scenarios lists them)", name)
		return
	}
	blob, ok := s.store.GetSpec(rec.Hash)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			"pinned spec %.16s... missing from store", rec.Hash)
		return
	}
	spec, err := scenario.Parse(blob)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stored spec for %q unparseable: %v", name, err)
		return
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stored spec for %q uncompilable: %v", name, err)
		return
	}
	if c.Hash != rec.Hash {
		writeError(w, http.StatusInternalServerError,
			"stored spec for %q hashes to %.16s..., pinned %.16s...", name, c.Hash, rec.Hash)
		return
	}
	cfg, err := s.configFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.scenario()
	start := time.Now()
	entry, state, renderDur, err := s.renderScenario(c, cfg, peerList(r))
	if err != nil {
		writeError(w, runStatus(err), "scenario %s: %v", name, err)
		return
	}
	setTimingHeaders(w, start, renderDur)
	w.Header().Set("X-Scenario-Hash", c.Hash)
	w.Header().Set("X-Scenario-Name", rec.Name)
	w.Header().Set("X-Scenario-Version", strconv.Itoa(rec.Version))
	writeCachedEntry(w, r, entry, state)
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
	writeJSON(w, http.StatusOK, out)
}

// scenarioVersionView is one GET /scenarios/{name}/versions row; the
// Changed flag diffs each pin against its predecessor, so a client
// can spot which re-PUTs actually moved the spec.
type scenarioVersionView struct {
	Version    int    `json:"version"`
	Hash       string `json:"hash"`
	PinnedUnix int64  `json:"pinned_unix"`
	Changed    bool   `json:"changed"`
}

// handleScenarioVersions serves one name's full pin history.
func (s *Server) handleScenarioVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.NameInfo(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario name %q (GET /scenarios lists them)", name)
		return
	}
	views := make([]scenarioVersionView, len(rec.Versions))
	for i, v := range rec.Versions {
		views[i] = scenarioVersionView{
			Version:    v.Version,
			Hash:       v.Hash,
			PinnedUnix: v.PinnedUnix,
			Changed:    i == 0 || v.Hash != rec.Versions[i-1].Hash,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":     rec.Name,
		"hash":     rec.Hash,
		"version":  rec.Version,
		"versions": views,
	})
}
