// Tests the single resolver makes cheap: the keys it derives are the
// parent commit's, byte for byte; the router and the workers behind it
// cannot disagree about them; and the real registry renders the same
// through a routed fleet as it does directly.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	_ "swallow/internal/experiments" // the real registry
	"swallow/internal/harness"
	"swallow/internal/service/api"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// overrideQuery is the table's one ?iters=&payloads= override, and
// overrideJob the same thing in a job body's spelling. quickQuery and
// quickJob are the short settling window, which the parent also
// accepted as a quick flag.
const (
	overrideQuery = "iters=7&payloads=4,64"
	overrideJob   = `"config": {"iters": 7, "goodput_payloads": [4, 64]}`
	quickQuery    = "iters=5000"
	quickJob      = `"config": {"iters": 5000}`
)

// quickConfig is the short settling window as a config.
func quickConfig() harness.Config { return harness.Config{Iters: 5000} }

// parentKeys are literal cache keys computed at the parent commit
// (2dd1d4b) with its own router-side key functions, not regenerated:
// every registry artifact under the default config, the parent's quick
// flag (quickQuery's key) and overrideQuery, and every spec file in
// specDirs under the default config and the quick flag (over is empty
// for those). If one of these moves, every cache entry, store file and
// ring position filed under it is orphaned.
var parentKeys = []struct{ name, def, quick, over string }{
	{"ablation-links", "05df7aad7deabcad89c870ff4a6355795bf743419d2dfbc5b1c3a356c5309617", "05df7aad7deabcad89c870ff4a6355795bf743419d2dfbc5b1c3a356c5309617", "05df7aad7deabcad89c870ff4a6355795bf743419d2dfbc5b1c3a356c5309617"},
	{"ablation-placement", "8898df90efcee9e64b6e2fc1e35e6d2fbc70ff78c1903387d25b78b85cbc185f", "8898df90efcee9e64b6e2fc1e35e6d2fbc70ff78c1903387d25b78b85cbc185f", "8898df90efcee9e64b6e2fc1e35e6d2fbc70ff78c1903387d25b78b85cbc185f"},
	{"ablation-routing", "8c073201aa2391841208a2e22aad9355358d55493cde9cf5441101f6efd16440", "8c073201aa2391841208a2e22aad9355358d55493cde9cf5441101f6efd16440", "8c073201aa2391841208a2e22aad9355358d55493cde9cf5441101f6efd16440"},
	{"adc", "137f7a0cac0fc6831db7de9e2438aacb35e3318cbcafb6dc27e8e9e73b0ab7e4", "137f7a0cac0fc6831db7de9e2438aacb35e3318cbcafb6dc27e8e9e73b0ab7e4", "137f7a0cac0fc6831db7de9e2438aacb35e3318cbcafb6dc27e8e9e73b0ab7e4"},
	{"boot", "df97dd1113ebd5102615a44f30ecc7e3380f723bb52cd6ba98a49659d02f9a58", "df97dd1113ebd5102615a44f30ecc7e3380f723bb52cd6ba98a49659d02f9a58", "df97dd1113ebd5102615a44f30ecc7e3380f723bb52cd6ba98a49659d02f9a58"},
	{"boot-sweep", "bb762d328434abe11257f391c9b02335bbd044d3d758a896ca062f614757c058", "bb762d328434abe11257f391c9b02335bbd044d3d758a896ca062f614757c058", "bb762d328434abe11257f391c9b02335bbd044d3d758a896ca062f614757c058"},
	{"bridge", "5f4c01aacfdaf93ad7ce7808a12e18503b46703cbb2623ec5b659189b3602751", "5f4c01aacfdaf93ad7ce7808a12e18503b46703cbb2623ec5b659189b3602751", "5f4c01aacfdaf93ad7ce7808a12e18503b46703cbb2623ec5b659189b3602751"},
	{"ec", "62582f4ca7de3953d7c5f2f69b0029eeaa3d9311247b7415b50f4bb33a0d0532", "62582f4ca7de3953d7c5f2f69b0029eeaa3d9311247b7415b50f4bb33a0d0532", "62582f4ca7de3953d7c5f2f69b0029eeaa3d9311247b7415b50f4bb33a0d0532"},
	{"energy", "12d53222c8904b8bf5f49f3b358da8c105e6f765c5b0d7fb022c8bc44566b3c6", "12d53222c8904b8bf5f49f3b358da8c105e6f765c5b0d7fb022c8bc44566b3c6", "12d53222c8904b8bf5f49f3b358da8c105e6f765c5b0d7fb022c8bc44566b3c6"},
	{"eq2", "a32eaac2285589b701e3f7ba4cf2cd2f7088f38a7f43a6a34e1ba1a622b44bb2", "43afd7942f684e4f8e0d65bfc812f4074505f96848757e5a38ce833eb42985bd", "651aafde72ed9e06af00490b5fa81662c050d4e9163d3c324438049aa954445e"},
	{"fig1", "e93bc0f3d016d7336d318b2d4389c3c06b661fe594d7e667ddcbc57f4d6c3d8b", "6e9044c9c88c1c800037e787f7e3adae5bc1e8373f132c399b050c6ac14514b1", "11c103056ade8553b3c385d23d6f425716579dae2ded5209c14f54c92073c5d5"},
	{"fig2", "179651d999ebbb44c47c49039d7d241d9d304f24a66a5ca29e70f065f2c91d1e", "f6c9df46c1801f706ffbb69a29293830b6f444fd23c959d19f2dbc752283916b", "6215de7deff8b8b9eda04a545e68a27412b7b05829d28a94581947f00caafc31"},
	{"fig3", "28e434f3b9f347c03204248db9aedc3d348e5b4494c92baaf4b779fc6cfe6ede", "e08dabad18356befbf126e40ce97778d105d357441b74c520a36c8509039f301", "3757707e0d9bad84bff5b10398ee23efb63cead0aad8a118cdf0e5d360f96041"},
	{"fig4", "5482176131451dbfea2608c226409a94d73ec19c7c168dcf10608dbdd905f73c", "b5562c635980ce7eb6ecb7bbf2a5caf026f69ac7ab08d44fe6483a84255bc287", "800a57de713b1b1afb09f8a16baf02073090282a5b75a129319d0d4df0af7d1e"},
	{"goodput", "56094b22aeeb2d1d02315a0a3af35a4978d6e400aae92350494eb0d29fbbfaac", "56094b22aeeb2d1d02315a0a3af35a4978d6e400aae92350494eb0d29fbbfaac", "213721702550900a07cee35acb3bf4e4b24e0d4015b57fb40e17bded20141d90"},
	{"latency", "7574c80621c823b62460e53515aa7955f0d13411ed673460928147458f9eb657", "7574c80621c823b62460e53515aa7955f0d13411ed673460928147458f9eb657", "7574c80621c823b62460e53515aa7955f0d13411ed673460928147458f9eb657"},
	{"placement", "19a4fe801c1866d16b26fdb7b17debfe617e5e08a783e1d917fea3b1ce173623", "19a4fe801c1866d16b26fdb7b17debfe617e5e08a783e1d917fea3b1ce173623", "19a4fe801c1866d16b26fdb7b17debfe617e5e08a783e1d917fea3b1ce173623"},
	{"survey-ec", "49181af8eb09589b0ae85f2f772d8db77876b38f26c68ed01f8d363fb0a65fc3", "49181af8eb09589b0ae85f2f772d8db77876b38f26c68ed01f8d363fb0a65fc3", "49181af8eb09589b0ae85f2f772d8db77876b38f26c68ed01f8d363fb0a65fc3"},
	{"table1", "c5a0f8daa4cb4b26f5689ce53cd05e55ec2add95565bc946a74734f9cfae3dc6", "c5a0f8daa4cb4b26f5689ce53cd05e55ec2add95565bc946a74734f9cfae3dc6", "c5a0f8daa4cb4b26f5689ce53cd05e55ec2add95565bc946a74734f9cfae3dc6"},
	{"table2", "cdf3027b9b9729fce6bc294fffc4ec88ce6ae8e77d858124f0009ee37e7abd7d", "cdf3027b9b9729fce6bc294fffc4ec88ce6ae8e77d858124f0009ee37e7abd7d", "cdf3027b9b9729fce6bc294fffc4ec88ce6ae8e77d858124f0009ee37e7abd7d"},
	{"table3", "7178832b38c8e652aad59f66e2ed9e8f3602eed6600a1066ee6dd5e83e47e38b", "7178832b38c8e652aad59f66e2ed9e8f3602eed6600a1066ee6dd5e83e47e38b", "7178832b38c8e652aad59f66e2ed9e8f3602eed6600a1066ee6dd5e83e47e38b"},
	{"goodput.json", "2cc45f0c9314ab71ae802f612c65b83c80b5fc69158a747691e91b74ed17399e", "2cc45f0c9314ab71ae802f612c65b83c80b5fc69158a747691e91b74ed17399e", ""},
	{"pipeline-dvfs.json", "1287750773f82dd059ca183bbb65d9d9907d80b9236a26901c43ffdc715d2732", "1287750773f82dd059ca183bbb65d9d9907d80b9236a26901c43ffdc715d2732", ""},
	// New pins, not the parent's: these two specs use the load
	// structure, which the parent commit cannot parse, so their keys
	// were computed when the files were added.
	{"fig2.json", "478c790422cc23e3a8df05b0a5ed779f331a3e84be4eda5f0b678a050edc97e7", "1109d3dbcc6f193ec9eab3b489503aec192573d4160792b6c78104885d571224", ""},
	{"fig3.json", "8d5b077c83d0801bbc61beed7d2425ccbbd2a6cf346715e7eb955becac652c43", "86250ac14bba3a936d457f264c8db8725557ab629d8772eb48950aa608f44997", ""},
	// A new pin, not the parent's: this spec uses the link_energy
	// measure, which the parent commit cannot parse, so its key was
	// computed when the file was added. It reads no knob, so
	// quickQuery files under the same key.
	{"table1.json", "a868f737cbcccdfe50673b7fd70ef630548063af22522ffd27132cc1f862f6eb", "a868f737cbcccdfe50673b7fd70ef630548063af22522ffd27132cc1f862f6eb", ""},
	// New pins, not the parent's: the registry's other compiled specs
	// had no JSON file until the registry's specs became files, so
	// their keys were computed from the files when they were generated
	// from the Go specs the registry then compiled.
	{"ablation-links.json", "b3c445b952a259d4f411e289d755075f9b046c25141d509c156a1b76083e2a92", "b3c445b952a259d4f411e289d755075f9b046c25141d509c156a1b76083e2a92", ""},
	{"ablation-placement.json", "7be1c098e3237b6f4391d44f3a115e6aede089823109ac45011d7100d5b42fdd", "7be1c098e3237b6f4391d44f3a115e6aede089823109ac45011d7100d5b42fdd", ""},
	{"adc.json", "e09268a7b46c39704739666fac14325e20c53da68f3f67957139b79fa3e906f2", "e09268a7b46c39704739666fac14325e20c53da68f3f67957139b79fa3e906f2", ""},
	{"boot-sweep.json", "ec7c4bc70da28f1e71a7eb2de7ac0ba306c33f3106e1585dff0136843989b9fd", "ec7c4bc70da28f1e71a7eb2de7ac0ba306c33f3106e1585dff0136843989b9fd", ""},
	{"boot.json", "bcc7473299feb6a386fd58e2893b79bb6881f61ca454d64496a49eb9c17ccd46", "bcc7473299feb6a386fd58e2893b79bb6881f61ca454d64496a49eb9c17ccd46", ""},
	{"bridge.json", "3fa8455056e219789392f69e9b51431b7d5ceb080751491f1049d1531154ddd7", "3fa8455056e219789392f69e9b51431b7d5ceb080751491f1049d1531154ddd7", ""},
	{"ec.json", "7deed95c8c92f7d0513a1c6b5292b1a42b4a77ace12a9f07e226680022eb2bdd", "7deed95c8c92f7d0513a1c6b5292b1a42b4a77ace12a9f07e226680022eb2bdd", ""},
	{"eq2.json", "4e6289b184bbef40795eb5ab33ddae07b4a405420e289ff1a39c802b632cbf55", "29d1cb44f9381fe425b37212deeeda04e62a95a81568cdd3defda63239582e19", ""},
	{"fig4.json", "a2e0b233b9af19445fd1b41a6a60af196e53c0ea377c07c1bb45ca5e2beeb8e1", "efb2edd496a000d7251dd3578bb70422a6d9429b6c676ea1fe7c17dcf2835096", ""},
	{"latency.json", "6bcf2536d8f997e80c4635d536efde4cd19055a44738485b5a89fc8b75a133fa", "6bcf2536d8f997e80c4635d536efde4cd19055a44738485b5a89fc8b75a133fa", ""},
	{"placement.json", "526a16f1554395da7d38c3256575c21cc14496c6937910c640a7b105117795fa", "526a16f1554395da7d38c3256575c21cc14496c6937910c640a7b105117795fa", ""},
}

// specDirs hold the spec files the table pins: the registry's own
// specs and the examples.
var specDirs = []string{"../../experiments/specs", "../../../examples/scenarios"}

// isSpec tells a scenario row (a file in specDirs) from an artifact
// row.
func isSpec(name string) bool { return strings.HasSuffix(name, ".json") }

// readSpec reads the spec file name from the first of specDirs that
// has it.
func readSpec(t *testing.T, name string) []byte {
	t.Helper()
	for _, dir := range specDirs {
		if blob, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
			return blob
		}
	}
	t.Fatalf("no spec file %s in %v", name, specDirs)
	return nil
}

// jobBody spells one table cell as a POST /jobs body.
func jobBody(t *testing.T, name, query string) string {
	what := fmt.Sprintf(`"artifact": %q`, name)
	if isSpec(name) {
		what = `"scenario": ` + string(readSpec(t, name))
	}
	switch query {
	case quickQuery:
		what += ", " + quickJob
	case overrideQuery:
		what += ", " + overrideJob
	}
	return "{" + what + "}"
}

// TestKeysDidNotMove: the resolver's key, in every spelling, equals the
// parent's for the whole table — and the table covers the whole
// registry and every spec file.
func TestKeysDidNotMove(t *testing.T) {
	rs := cluster.NewResolver()
	seen := map[string]bool{}
	for _, row := range parentKeys {
		seen[row.name] = true
		for query, want := range map[string]string{"": row.def, quickQuery: row.quick, overrideQuery: row.over} {
			if want == "" {
				continue
			}
			q, _ := url.ParseQuery(query)
			var sync cluster.Target
			var err error
			if isSpec(row.name) {
				sync, err = rs.Scenario(readSpec(t, row.name), q)
			} else {
				sync, err = rs.Artifact(row.name, q)
			}
			if err != nil {
				t.Fatalf("%s?%s: %v", row.name, query, err)
			}
			job, err := rs.Job([]byte(jobBody(t, row.name, query)))
			if err != nil {
				t.Fatalf("%s?%s as a job: %v", row.name, query, err)
			}
			if sync.Key != want || job.Key != want {
				t.Errorf("%s?%s: key moved\n sync %s\n  job %s\n want %s", row.name, query, sync.Key, job.Key, want)
			}
		}
	}
	for _, name := range harness.Names() {
		if !seen[name] && name != "echo" && name != "const" && name != "fail" {
			t.Errorf("registry artifact %q has no row in parentKeys", name)
		}
	}
	for _, dir := range specDirs {
		specs, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		for _, f := range specs {
			if !seen[filepath.Base(f)] {
				t.Errorf("%s has no row in parentKeys", f)
			}
		}
	}
}

// fleet is a router in front of two disk-backed workers, plus what a
// test needs to check where a key went: each worker's store and its
// directory, and a ring built independently of the router's.
type fleet struct {
	url    string
	stores map[string]*store.Store
	dirs   map[string]string
	ring   *cluster.Ring
}

func newFleet(t *testing.T) fleet {
	f := fleet{stores: map[string]*store.Store{}, dirs: map[string]string{}, ring: cluster.NewRing(0)}
	var urls []string
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		st := storeAt(t, dir)
		_, w := newWorker(t, api.Options{Store: st})
		f.stores[hostOf(w.URL)] = st
		f.dirs[hostOf(w.URL)] = dir
		f.ring.Add(hostOf(w.URL))
		urls = append(urls, w.URL)
	}
	_, rts := newRouter(t, cluster.RouterOptions{}, urls...)
	f.url = rts.URL
	return f
}

// do sends one request through the router: a GET, or a POST of body.
func (f fleet) do(t *testing.T, path, body string) (*http.Response, string) {
	t.Helper()
	if body == "" {
		return get(t, f.url+path)
	}
	resp, err := http.Post(f.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(blob)
}

// filedUnder asserts the worker that answered resp is the one the ring
// puts key on, and that its store holds the result under exactly key.
func (f fleet) filedUnder(t *testing.T, what string, resp *http.Response, key string) {
	t.Helper()
	worker := resp.Header.Get("X-Worker")
	if owner := f.ring.Sequence(key)[0]; worker != owner {
		t.Errorf("%s: served by %s, but its key belongs to %s: the router hashed something else", what, worker, owner)
	}
	if _, ok := f.stores[worker].Get(key); !ok {
		t.Errorf("%s: worker %s holds nothing under the key: it filed the result under something else", what, worker)
	}
}

// TestRouterAndWorkerCannotDisagree: for the key table, what the router
// hashes is what the worker files under, in all three spellings — the
// repeat of a request is a HIT on the same worker, a job lands where
// its synchronous twin does — and what does not resolve is relayed from
// a worker verbatim.
func TestRouterAndWorkerCannotDisagree(t *testing.T) {
	f := newFleet(t)
	for _, row := range parentKeys {
		// The default-config cells of the iteration-driven figures cost
		// seconds each; quick and the override exercise the same code.
		for query, key := range map[string]string{quickQuery: row.quick, overrideQuery: row.over} {
			if key == "" {
				continue
			}
			what, path, body := row.name+"?"+query, "/artifacts/"+row.name+"?"+query, ""
			if isSpec(row.name) {
				path, body = "/scenarios?"+query, string(readSpec(t, row.name))
			}
			first, want := f.do(t, path, body)
			if first.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s: %s", what, first.Status, want)
			}
			f.filedUnder(t, what, first, key)
			again, got := f.do(t, path, body)
			if again.Header.Get("X-Worker") != first.Header.Get("X-Worker") || again.Header.Get("X-Cache") != "HIT" || got != want {
				t.Errorf("%s repeated: worker %s, X-Cache %s; want %s, HIT, same body", what,
					again.Header.Get("X-Worker"), again.Header.Get("X-Cache"), first.Header.Get("X-Worker"))
			}
			job, blob := f.do(t, "/jobs", jobBody(t, row.name, query))
			if job.StatusCode != http.StatusAccepted || job.Header.Get("X-Worker") != first.Header.Get("X-Worker") {
				t.Errorf("%s as a job: %s on %s; want 202 on its twin's worker %s: %s", what,
					job.Status, job.Header.Get("X-Worker"), first.Header.Get("X-Worker"), blob)
			}
		}
	}

	// A job on a cold key files under the table's key too.
	row := parentKeys[0]
	resp, blob := f.do(t, "/jobs", jobBody(t, row.name, ""))
	var view struct{ ID, Status, Error string }
	if err := json.Unmarshal([]byte(blob), &view); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold job: %s: %s", resp.Status, blob)
	}
	for deadline := time.Now().Add(10 * time.Second); view.Status != "done"; {
		if view.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("cold job did not finish: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
		_, blob = f.do(t, "/jobs/"+view.ID, "")
		json.Unmarshal([]byte(blob), &view)
	}
	f.filedUnder(t, row.name+" as a cold job", resp, row.def)

	for _, bad := range []struct{ what, path, body string }{
		{"malformed spec", "/scenarios", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"blob"},"sweep":[{"param":"links","ints":[1]}]}`},
		{"unknown artifact", "/artifacts/no-such-table", ""},
		{"bad iters", "/artifacts/fig3?iters=banana", ""},
	} {
		routed, got := f.do(t, bad.path, bad.body)
		direct, want := fleet{url: "http://" + routed.Header.Get("X-Worker")}.do(t, bad.path, bad.body)
		if routed.StatusCode != direct.StatusCode || got != want || routed.StatusCode < 400 || routed.StatusCode >= 500 {
			t.Errorf("%s: routed %s %q; the worker itself says %s %q", bad.what, routed.Status, got, direct.Status, want)
		}
	}
}

// TestRoutedRegistryGolden: every registry artifact, rendered through
// a router and two workers, is the table the registry renders directly.
// Then each worker restarts over its store directory with a cold memory
// tier — all a kill -9 leaves, since Store.Put returns only after its
// rename — and re-serves every artifact it rendered, and a scenario
// pinned before the restart, from disk: byte-identical, with no render.
func TestRoutedRegistryGolden(t *testing.T) {
	f := newFleet(t)
	owner, bodies := map[string]string{}, map[string]string{}
	for _, row := range parentKeys {
		if isSpec(row.name) {
			continue
		}
		a := harness.Lookup(row.name)
		want, err := a.Table(a.Project(quickConfig()))
		if err != nil {
			t.Fatal(err)
		}
		resp, got := f.do(t, "/artifacts/"+row.name+"?"+quickQuery, "")
		if c := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || c != "MISS" || got != want.String() {
			t.Errorf("%s through the fleet: %s, X-Cache %q\n%s\nwant MISS\n%s", row.name, resp.Status, c, got, want)
		}
		owner[row.name], bodies[row.name] = resp.Header.Get("X-Worker"), got
	}
	const pinned = "/scenarios/goodput-pinned"
	req, err := http.NewRequest(http.MethodPut, f.url+pinned, bytes.NewReader(readSpec(t, "goodput.json")))
	if err != nil {
		t.Fatal(err)
	}
	pin, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pin.Body.Close()
	named, namedBody := f.do(t, pinned+"?"+quickQuery, "")
	if pin.StatusCode != http.StatusCreated || named.StatusCode != http.StatusOK {
		t.Fatalf("pin: %s, then render: %s: %s", pin.Status, named.Status, namedBody)
	}

	// Straight to the restarted workers: the router's ring hashes
	// worker addresses, and new listeners have new ones.
	restarted := map[string]string{}
	for host, dir := range f.dirs {
		_, w := newWorker(t, api.Options{Store: storeAt(t, dir)})
		restarted[host] = w.URL
	}
	diskHits := map[string]int{}
	fromDisk := func(what, host, path, want string) {
		t.Helper()
		diskHits[host]++
		resp, got := get(t, restarted[host]+path)
		if c := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || c != "HIT-DISK" || got != want {
			t.Errorf("%s after restart: %s, X-Cache %q, same bytes %v; want 200, HIT-DISK, true", what, resp.Status, c, got == want)
		}
	}
	for name, host := range owner {
		fromDisk(name, host, "/artifacts/"+name+"?"+quickQuery, bodies[name])
	}
	pinWorker := named.Header.Get("X-Worker")
	fromDisk("goodput-pinned", pinWorker, pinned+"?"+quickQuery, namedBody)
	if _, list := get(t, restarted[pinWorker]+"/scenarios"); !strings.Contains(list, `"goodput-pinned"`) {
		t.Errorf("GET /scenarios after restart does not list the pin: %s", list)
	}
	for host, url := range restarted {
		_, metrics := get(t, url+"/metrics")
		hits := fmt.Sprintf("swallow_store_hits_total %d\n", diskHits[host])
		if strings.Contains(metrics, "swallow_render_seconds") || !strings.Contains(metrics, hits) {
			t.Errorf("worker %s after its restart: want no render and %q:\n%s", host, hits, metrics)
		}
	}
}

// TestRouterJobPollStreams: a finished job's view is relayed whole
// however large its result — the router streams polls instead of
// buffering (and cutting) them.
func TestRouterJobPollStreams(t *testing.T) {
	id := cluster.JobID(strings.Repeat("0", 64))
	view := `{"id": "` + id + `", "status": "done", "result": "` + strings.Repeat("x", 5<<20) + `"}`
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			io.WriteString(w, `{"state": "ok"}`)
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id": "`+id+`", "status": "queued"}`)
		default:
			io.WriteString(w, view)
		}
	}))
	t.Cleanup(stub.Close)
	_, rts := newRouter(t, cluster.RouterOptions{}, stub.URL)
	resp, err := http.Post(rts.URL+"/jobs", "application/json", strings.NewReader(`{"artifact": "const"}`))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v, %v", resp, err)
	}
	resp.Body.Close()
	_, got := get(t, rts.URL+"/jobs/"+id)
	if got != view {
		t.Fatalf("poll relayed %d of %d bytes", len(got), len(view))
	}
}
