// Store-tier tests: the disk tier under the memory cache (HIT-DISK
// restarts), the peer cache-fill path (HIT-PEER), the raw /cache/{key}
// endpoint, and named scenarios.
// Like the rest of the api tests they run against the synthetic
// registry in api_test.go, so tier transitions are observable through
// the echoRuns counter: any unexpected re-simulation is a hard fail.
package api_test

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swallow/internal/service/api"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// openStore opens a disk store in dir bound to the live registry
// version, exactly as swallow-serve -store-dir does.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Version: api.RegistryVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// defaultKey is the key the server files a bare GET /artifacts/{name}
// (no query overrides) under.
func defaultKey(t *testing.T, name string) string {
	t.Helper()
	target, err := cluster.NewResolver().Artifact(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return target.Key
}

// wantCache asserts one response's X-Cache verdict.
func wantCache(t *testing.T, resp *http.Response, want string) {
	t.Helper()
	if got := resp.Header.Get("X-Cache"); got != want {
		t.Fatalf("X-Cache = %q, want %q", got, want)
	}
}

// TestRestartServesFromDiskStore is the tentpole contract: a server
// restarted over the same store directory re-serves its keyspace
// byte-identically as HIT-DISK, with zero re-simulations, and the
// disk hit warms the new memory tier.
func TestRestartServesFromDiskStore(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newServer(t, api.Options{Store: openStore(t, dir)})
	resp, body1 := get(t, ts1.URL+"/artifacts/echo")
	wantCache(t, resp, "MISS")
	etag := resp.Header.Get("ETag")
	runs := echoRuns.Load()

	// "Restart": a fresh server over the same directory starts with a
	// cold memory cache but a warm disk store.
	_, ts2 := newServer(t, api.Options{Store: openStore(t, dir)})
	resp, body2 := get(t, ts2.URL+"/artifacts/echo")
	wantCache(t, resp, "HIT-DISK")
	if body2 != body1 {
		t.Fatalf("disk hit body differs from cold render:\n%q\nvs\n%q", body2, body1)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("disk hit ETag = %q, want %q", got, etag)
	}
	if echoRuns.Load() != runs {
		t.Fatal("disk hit re-simulated")
	}

	// The disk hit populated the memory tier: the next read is HIT.
	resp, _ = get(t, ts2.URL+"/artifacts/echo")
	wantCache(t, resp, "HIT")
	if echoRuns.Load() != runs {
		t.Fatal("memory hit re-simulated")
	}
}

// TestCacheEndpoint exercises the raw peer-fill surface: key
// validation, the version stamp on every answer, and reads from the
// memory and disk tiers.
func TestCacheEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, api.Options{Store: openStore(t, dir)})

	resp, _ := get(t, ts.URL+"/cache/not-a-key")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/cache/"+strings.Repeat("a", 64))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Store-Version") == "" {
		t.Fatal("miss answer lacks X-Store-Version (peers need it to reject mixed versions)")
	}

	_, want := get(t, ts.URL+"/artifacts/echo")
	resp, got := get(t, ts.URL+"/cache/"+defaultKey(t, "echo"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm key: status %d, want 200", resp.StatusCode)
	}
	wantCache(t, resp, "HIT")
	if got != want {
		t.Fatal("cache read body differs from rendered body")
	}
	if v := resp.Header.Get("X-Store-Version"); v != api.RegistryVersion() {
		t.Fatalf("X-Store-Version = %q, want %q", v, api.RegistryVersion())
	}
}

// TestPeerFill is the warm-handoff contract: a server missing every
// local tier but holding a peer hint adopts the peer's stored result
// — byte-identical, zero simulations — and files it in its own
// tiers, disk included.
func TestPeerFill(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, tsA := newServer(t, api.Options{Store: openStore(t, dirA)})
	_, tsB := newServer(t, api.Options{Store: openStore(t, dirB)})

	_, want := get(t, tsA.URL+"/artifacts/echo") // warm A
	runs := echoRuns.Load()

	req, err := http.NewRequest(http.MethodGet, tsB.URL+"/artifacts/echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Swallow-Peers", tsA.URL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	wantCache(t, resp, "HIT-PEER")
	if body != want {
		t.Fatal("peer fill body differs from the peer's render")
	}
	if echoRuns.Load() != runs {
		t.Fatal("peer fill re-simulated")
	}

	// The fill was adopted into B's memory tier...
	resp, _ = get(t, tsB.URL+"/artifacts/echo")
	wantCache(t, resp, "HIT")
	// ...and written through to B's own disk store: a "restarted" B
	// serves it without peers or simulation.
	_, tsB2 := newServer(t, api.Options{Store: openStore(t, dirB)})
	resp, body2 := get(t, tsB2.URL+"/artifacts/echo")
	wantCache(t, resp, "HIT-DISK")
	if body2 != want {
		t.Fatal("adopted entry body differs after restart")
	}
	if echoRuns.Load() != runs {
		t.Fatal("adopted entry re-simulated after restart")
	}
}

// TestPeerFillBadPeerFallsThrough: unreachable or cold peers are a
// soft miss — the render proceeds locally and still answers MISS.
func TestPeerFillBadPeerFallsThrough(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, api.Options{Store: openStore(t, dir)})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/artifacts/echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A dead port and a syntactically invalid entry: both must be
	// skipped without failing the request.
	req.Header.Set("X-Swallow-Peers", "http://127.0.0.1:1,not-a-url")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	wantCache(t, resp, "MISS")
	if body == "" {
		t.Fatal("empty body")
	}
}

// readAll drains and closes one response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// put sends PUT /scenarios/{name} with spec as the body.
func put(t *testing.T, srvURL, name, spec string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srvURL+"/scenarios/"+name, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

// TestNamedScenarios drives the pin surface end to end: PUT pins a
// name (201 then 200 on idempotent re-pin), GET renders by name with
// identity headers, the list and versions endpoints report the pin,
// and everything survives a restart over the same store directory.
func TestNamedScenarios(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, api.Options{Store: openStore(t, dir)})

	resp, body := put(t, ts.URL, "probe", specJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first pin: status %d: %s", resp.StatusCode, body)
	}
	var pin struct {
		Name    string `json:"name"`
		Hash    string `json:"hash"`
		Version int    `json:"version"`
		Changed bool   `json:"changed"`
	}
	if err := json.Unmarshal([]byte(body), &pin); err != nil {
		t.Fatalf("pin response: %v: %s", err, body)
	}
	if pin.Name != "probe" || pin.Version != 1 || !pin.Changed || len(pin.Hash) == 0 {
		t.Fatalf("pin view = %+v", pin)
	}

	// Re-pinning an equivalent respelling is idempotent: same hash, no
	// new version, 200 not 201.
	resp, body = put(t, ts.URL, "probe", specJSONRespelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-pin: status %d: %s", resp.StatusCode, body)
	}
	var repin struct {
		Hash    string `json:"hash"`
		Version int    `json:"version"`
		Changed bool   `json:"changed"`
	}
	json.Unmarshal([]byte(body), &repin)
	if repin.Hash != pin.Hash || repin.Version != 1 || repin.Changed {
		t.Fatalf("re-pin view = %+v, want same hash, version 1, changed=false", repin)
	}

	// Invalid names and invalid specs are 400s, not pins.
	if resp, _ := put(t, ts.URL, "..%2F..%2Fetc", specJSON); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal name: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := put(t, ts.URL, "broken", "{"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}

	// Render by name; the result must match the anonymous submission
	// byte for byte (same spec hash, same cache key).
	respAnon, wantBody := postScenario(t, ts.URL, specJSON, nil)
	if respAnon.StatusCode != http.StatusOK {
		t.Fatalf("anonymous submit: status %d", respAnon.StatusCode)
	}
	resp, got := get(t, ts.URL+"/scenarios/probe")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named render: status %d: %s", resp.StatusCode, got)
	}
	if got != wantBody {
		t.Fatal("named render differs from anonymous submission")
	}
	if h := resp.Header.Get("X-Scenario-Hash"); h != pin.Hash {
		t.Fatalf("X-Scenario-Hash = %q, want %q", h, pin.Hash)
	}
	if n := resp.Header.Get("X-Scenario-Name"); n != "probe" {
		t.Fatalf("X-Scenario-Name = %q", n)
	}
	if resp.Header.Get("X-Scenario-Version") != "1" {
		t.Fatalf("X-Scenario-Version = %q", resp.Header.Get("X-Scenario-Version"))
	}

	// Unknown names are 404s.
	if resp, _ := get(t, ts.URL+"/scenarios/absent"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name: status %d, want 404", resp.StatusCode)
	}

	// The list and versions views agree with the pin.
	resp, body = get(t, ts.URL+"/scenarios")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list []struct {
		Name string `json:"name"`
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list: %v: %s", err, body)
	}
	if len(list) != 1 || list[0].Name != "probe" || list[0].Hash != pin.Hash {
		t.Fatalf("list = %+v", list)
	}
	if vv := versions(t, ts.URL, "probe"); len(vv) != 1 || vv[0].Version != 1 || vv[0].Hash != pin.Hash {
		t.Fatalf("versions = %+v", vv)
	}

	// Pins persist: a restarted server still knows the name and
	// serves its render from disk.
	_, ts2 := newServer(t, api.Options{Store: openStore(t, dir)})
	resp, got = get(t, ts2.URL+"/scenarios/probe")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named render after restart: status %d: %s", resp.StatusCode, got)
	}
	wantCache(t, resp, "HIT-DISK")
	if got != wantBody {
		t.Fatal("named render after restart differs")
	}

	// A different spec is a new version: the history lists both pins, in
	// order, with distinct hashes, and every row is a pin that moved the
	// spec, so none carries a flag saying so.
	resp, body = put(t, ts2.URL, "probe", strings.Replace(specJSON, `"tokens": 400`, `"tokens": 800`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin of a second spec: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &repin); err != nil || repin.Version != 2 || !repin.Changed {
		t.Fatalf("pin of a second spec = %+v (%v), want version 2, changed=true", repin, err)
	}
	vv := versions(t, ts2.URL, "probe")
	if len(vv) != 2 || vv[0].Version != 1 || vv[1].Version != 2 || vv[0].Hash != pin.Hash || vv[1].Hash != repin.Hash || repin.Hash == pin.Hash {
		t.Fatalf("versions after a second spec = %+v, want version 1 at %s and version 2 at %s", vv, pin.Hash, repin.Hash)
	}
	if _, body := get(t, ts2.URL+"/scenarios/probe/versions"); strings.Contains(body, `"changed"`) {
		t.Fatalf("versions rows carry a changed flag: %s", body)
	}
}

// versions reads GET /scenarios/{name}/versions' rows.
func versions(t *testing.T, url, name string) []store.NameVersion {
	t.Helper()
	resp, body := get(t, url+"/scenarios/"+name+"/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions: status %d: %s", resp.StatusCode, body)
	}
	var vv struct {
		Versions []store.NameVersion `json:"versions"`
	}
	if err := json.Unmarshal([]byte(body), &vv); err != nil {
		t.Fatalf("versions: %v: %s", err, body)
	}
	return vv.Versions
}

// TestMemoryStoreNamedScenarios: with no disk store configured, the
// pin surface still works for the process lifetime (and the cache
// tiers stay two-state HIT/MISS — the existing api tests pin that).
func TestMemoryStoreNamedScenarios(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	if resp, _ := put(t, ts.URL, "ephemeral", specJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("pin on memory store: status %d, want 201", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/scenarios/ephemeral")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named render: status %d: %s", resp.StatusCode, body)
	}
	wantCache(t, resp, "MISS")
}

// TestDamagedPinIsRepairedByRePut: when the file holding a pin's spec
// is damaged between runs — cut short, or one byte changed so the JSON
// still parses — the restarted server answers the name with a clean
// 404, and the next PUT of the spec repairs it: 201 at version 1, then
// a render byte-identical to the anonymous submission.
func TestDamagedPinIsRepairedByRePut(t *testing.T) {
	canonical, err := cluster.NewResolver().Scenario([]byte(specJSON), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := canonical.Spec
	for _, tc := range []struct {
		name   string
		damage func(blob []byte, at int) []byte
	}{
		{"truncated", func(blob []byte, at int) []byte { return blob[:at+len(spec)/2] }},
		{"byte-flipped", func(blob []byte, at int) []byte {
			i := at + bytes.Index(spec, []byte("links-probe")) + len("links-prob")
			blob[i]++ // "links-probe" becomes "links-probf"
			return blob
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := api.New(api.Options{Store: openStore(t, dir)})
			ts1 := httptest.NewServer(s1.Handler())
			if resp, body := put(t, ts1.URL, "probe", specJSON); resp.StatusCode != http.StatusCreated {
				t.Fatalf("pin: status %d: %s", resp.StatusCode, body)
			}
			ts1.Close()
			s1.Close()

			// Exactly one file under the store holds the spec; damage it.
			var holders []string
			filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				if blob, err := os.ReadFile(path); err == nil && bytes.Contains(blob, spec) {
					holders = append(holders, path)
				}
				return nil
			})
			if len(holders) != 1 {
				t.Fatalf("files holding the spec: %v; want one", holders)
			}
			blob, err := os.ReadFile(holders[0])
			if err != nil {
				t.Fatal(err)
			}
			blob = tc.damage(blob, bytes.Index(blob, spec))
			if err := os.WriteFile(holders[0], blob, 0o644); err != nil {
				t.Fatal(err)
			}

			_, ts := newServer(t, api.Options{Store: openStore(t, dir)})
			if resp, body := get(t, ts.URL+"/scenarios/probe"); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("damaged pin after restart: status %d, want 404: %s", resp.StatusCode, body)
			}
			resp, body := put(t, ts.URL, "probe", specJSON)
			var pin struct {
				Version int  `json:"version"`
				Changed bool `json:"changed"`
			}
			json.Unmarshal([]byte(body), &pin)
			if resp.StatusCode != http.StatusCreated || pin.Version != 1 || !pin.Changed {
				t.Fatalf("re-pin: status %d, %+v; want 201 at version 1: %s", resp.StatusCode, pin, body)
			}
			_, want := postScenario(t, ts.URL, specJSON, nil)
			resp, got := get(t, ts.URL+"/scenarios/probe")
			if resp.StatusCode != http.StatusOK || got != want {
				t.Fatalf("repaired pin: status %d, body equal to anonymous submission: %v", resp.StatusCode, got == want)
			}
		})
	}
}
