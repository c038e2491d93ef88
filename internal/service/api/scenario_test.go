package api_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"swallow/internal/service/api"
)

// specJSON is a small but real scenario: one package-internal stream
// on a one-slice machine, swept over the enabled-link count.
const specJSON = `{
	"name": "links-probe",
	"grid": {"slices_x": 1, "slices_y": 1},
	"workload": {
		"structure": "traffic",
		"flows": [{
			"src": {"x": 0, "y": 0, "layer": "V"},
			"dst": {"x": 0, "y": 0, "layer": "H"},
			"tokens": 400, "packet_tokens": 20
		}]
	},
	"sweep": [{"param": "links", "ints": [1, 4]}]
}`

// specJSONRespelled is the same scenario with defaults spelled out
// and keys reordered — semantically identical, so it must share the
// cache entry of specJSON.
const specJSONRespelled = `{
	"sweep": [{"ints": [1, 4], "param": "links"}],
	"measure": "aggregate_goodput",
	"operating": {"core_mhz": 500, "vdd": 1.0, "links": "operating"},
	"workload": {
		"flows": [{
			"dst": {"x": 0, "y": 0, "layer": "H"},
			"src": {"x": 0, "y": 0, "layer": "V"},
			"packet_tokens": 20, "tokens": 400
		}],
		"structure": "traffic"
	},
	"grid": {"slices_y": 1, "slices_x": 1},
	"name": "links-probe"
}`

func postScenario(t *testing.T, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/scenarios", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

// TestScenarioEndToEnd: submit -> 200 with a rendered table and
// ETag; an equivalent respelling is a cache HIT with the same ETag;
// If-None-Match round-trips as 304.
func TestScenarioEndToEnd(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	resp, body := postScenario(t, ts.URL, specJSON, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first submit X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	etag := resp.Header.Get("ETag")
	hash := resp.Header.Get("X-Scenario-Hash")
	if etag == "" || hash == "" {
		t.Fatalf("missing ETag (%q) or X-Scenario-Hash (%q)", etag, hash)
	}
	if !strings.Contains(body, "links-probe") || !strings.Contains(body, "bit/s") {
		t.Fatalf("body is not a rendered table:\n%s", body)
	}
	if lines := strings.Count(body, "\n"); lines < 4 {
		t.Fatalf("table too short (%d lines):\n%s", lines, body)
	}

	// Equivalent respelling: HIT, byte-identical, same identities.
	resp2, body2 := postScenario(t, ts.URL, specJSONRespelled, nil)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("respelled submit: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if body2 != body || resp2.Header.Get("ETag") != etag || resp2.Header.Get("X-Scenario-Hash") != hash {
		t.Fatal("respelled spec did not share the cache entry")
	}

	// Conditional resubmit.
	resp3, _ := postScenario(t, ts.URL, specJSON, map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional submit status %d, want 304", resp3.StatusCode)
	}
}

// TestScenarioBadSpecs: malformed submissions are 400s with
// field-level messages, never 500s.
func TestScenarioBadSpecs(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	cases := []struct {
		name, body, wantMsg string
	}{
		{"not json", `{"grid":`, "bad spec JSON"},
		{"unknown field", `{"grid":{"slices_x":1,"slices_y":1},"wrokload":{}}`, "unknown field"},
		{"unknown structure", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"blob"},"sweep":[{"param":"links","ints":[1]}]}`, "workload.structure"},
		{"absurd grid", `{"grid":{"slices_x":50,"slices_y":50},"workload":{"structure":"traffic","flows":[{"src":{"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links","ints":[1]}]}`, "grid"},
		{"empty sweep axis", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"traffic","flows":[{"src":{"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links"}]}`, "empty axis"},
		{"off-grid placement", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"traffic","flows":[{"src":{"x":40,"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links","ints":[1]}]}`, "outside the"},
		// The load programs panic outside 1-8 threads; validation keeps
		// that out of reach.
		{"load threads 9", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"load","threads":9},"sweep":[{"param":"freq_mhz","floats":[500]}]}`, "workload.threads"},
		{"load threads axis 0", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"load"},"sweep":[{"param":"threads","ints":[0]}]}`, "threads 0"},
		// The instruments' measures, each on the wrong structure or fed
		// what it does not take.
		{"link_energy on load", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"load"},"sweep":[{"param":"freq_mhz","floats":[500]}],"measure":"link_energy"}`, `link_energy\" does not apply`},
		{"bridge_rate on ping", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"ping","a":{"layer":"V"},"b":{"layer":"H"}},"sweep":[{"param":"rounds","ints":[4]}],"measure":"bridge_rate"}`, `bridge_rate\" does not apply`},
		{"boot_cost on traffic", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"traffic","flows":[{"src":{"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links","ints":[1]}],"measure":"boot_cost"}`, `boot_cost\" does not apply`},
		{"adc_rates on traffic", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"traffic","flows":[{"src":{"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links","ints":[1]}],"measure":"adc_rates"}`, `adc_rates\" does not apply`},
		{"flows on bridge_rate", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"traffic","flows":[{"src":{"layer":"V"},"dst":{"layer":"H"},"tokens":10}]},"sweep":[{"param":"links","ints":[1]}],"measure":"bridge_rate"}`, "takes no flows"},
		{"threads axis on boot_cost", `{"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"load"},"sweep":[{"param":"threads","ints":[2]}],"measure":"boot_cost"}`, "threads axis does not apply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postScenario(t, ts.URL, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, tc.wantMsg) {
				t.Fatalf("error %q does not name the field (want %q)", body, tc.wantMsg)
			}
		})
	}
}

// TestScenarioJobMatchesSync: the async scenario job renders the same
// bytes the sync endpoint serves, under its own job class label.
func TestScenarioJobMatchesSync(t *testing.T) {
	_, ts := newServer(t, api.Options{Workers: 1})
	_, want := postScenario(t, ts.URL, specJSON, nil)

	reqBody := `{"scenario": ` + specJSON + `}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID, Artifact, Status, URL, Result string
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.Artifact, "scenario:") {
		t.Fatalf("job class %q is not a scenario class", view.Artifact)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, body := get(t, ts.URL+view.URL)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		var j struct{ Status, Result, Error string }
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatal(err)
		}
		if j.Status == "done" {
			if j.Result != want {
				t.Fatalf("job result diverges from sync render:\n%s\n---\n%s", j.Result, want)
			}
			return
		}
		if j.Status == "failed" {
			t.Fatalf("job failed: %s", j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobBodyTooLarge: the async path enforces the same body bound as
// POST /scenarios, so an oversized inline spec cannot exhaust memory.
func TestJobBodyTooLarge(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	huge := `{"scenario": {"name":"` + strings.Repeat("x", 2<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestScenarioBadJobSpec: a bad inline spec fails at submission (400),
// not inside the worker.
func TestScenarioBadJobSpec(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenario": {"grid":{"slices_x":1,"slices_y":1},"workload":{"structure":"blob"},"sweep":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
