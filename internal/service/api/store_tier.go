package api

// The tiers under Server.render — the peer ask and the /cache/{key}
// endpoint that answers it — plus the named-scenario registry the
// store persists.

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"swallow/internal/harness"
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

// peerList parses the X-Swallow-Peers request header (comma-separated
// base URLs, set by a fronting router) into the ordered peer-ask
// list. Requests arriving without the header — direct clients, async
// jobs — get no peer tier.
func peerList(r *http.Request) []string {
	var out []string
	for _, p := range strings.Split(r.Header.Get("X-Swallow-Peers"), ",") {
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
			s.met.peerFills.Add(1)
			return body, true
		}
	}
	if len(peers) > 0 {
		s.met.peerMisses.Add(1)
	}
	return nil, false
}

// askPeer performs one peer cache read.
func (s *Server) askPeer(base, key string) ([]byte, bool) {
	resp, err := s.peers.Get(strings.TrimSuffix(base, "/") + "/cache/" + key)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Store-Version") != s.store.Version() {
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil || len(body) == 0 || len(body) > maxPeerBody {
		return nil, false
	}
	sum := sha256.Sum256(body)
	return body, resp.Header.Get("ETag") == `"`+hex.EncodeToString(sum[:])+`"`
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
		cluster.WriteError(w, http.StatusBadRequest, "bad cache key (want 64 hex chars)")
		return
	}
	w.Header().Set("X-Store-Version", s.store.Version())
	if ent, ok := s.cache.Peek(key); ok {
		writeEntry(w, r, ent, cacheMemory)
	} else if ent, ok := s.store.Get(key); ok {
		writeEntry(w, r, cache.Entry{Body: ent.Body, ContentHash: ent.ContentHash}, cacheDisk)
	} else {
		cluster.WriteError(w, http.StatusNotFound, "key not cached on this worker")
	}
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

// scenarioVersionView is one GET /scenarios/{name}/versions row; the
// Changed flag diffs each pin against its predecessor, so a client
// can spot which re-PUTs actually moved the spec.
type scenarioVersionView struct {
	store.NameVersion
	Changed bool `json:"changed"`
}

// handleScenarioVersions serves one name's full pin history.
func (s *Server) handleScenarioVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.NameInfo(name)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "unknown scenario name %q (GET /scenarios lists them)", name)
		return
	}
	views := make([]scenarioVersionView, len(rec.Versions))
	for i, v := range rec.Versions {
		views[i] = scenarioVersionView{v, i == 0 || v.Hash != rec.Versions[i-1].Hash}
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"name":     rec.Name,
		"hash":     rec.Hash,
		"version":  rec.Version,
		"versions": views,
	})
}
