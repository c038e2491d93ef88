package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"swallow/internal/harness"
	"swallow/internal/service/cluster"
)

// FuzzResolve holds the resolver to what a client may send any process
// of the service: Resolver.Artifact, Scenario and Job never panic, and
// every refusal maps through Status to the caller's fault (400, 404 or
// 413), never a 500. JobKey never panics either, and recovers the key
// of any ID JobID mints. The fuzzer varies an artifact name (which is
// also read as a job ID), a query string, and a body read both as a
// spec and as a job. The seeds are the example specs, the key table's
// query rows, and job bodies for every registered name.
func FuzzResolve(f *testing.F) {
	queries := []string{"", "quick=1", overrideQuery}
	files, err := filepath.Glob("../../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs to seed from: %v", err)
	}
	for _, file := range files {
		blob, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range queries {
			f.Add("", q, blob)
		}
		f.Add("", "", []byte(`{"scenario": `+string(blob)+`, "quick": true}`))
	}
	for _, name := range harness.Names() {
		for i, extra := range []string{"", `, "quick": true`, ", " + overrideJob} {
			f.Add(name, queries[i], []byte(fmt.Sprintf(`{"artifact": %q%s}`, name, extra)))
		}
	}
	f.Add(cluster.JobID(parentKeys[0].def), "iters=0", []byte(`{"artifact": "table1", "scenario": {}}`))

	rs := cluster.NewResolver(harness.Config{}, harness.Config{})
	f.Fuzz(func(t *testing.T, name, query string, body []byte) {
		q, _ := url.ParseQuery(query)
		_, artErr := rs.Artifact(name, q)
		_, specErr := rs.Scenario(body, q)
		_, jobErr := rs.Job(body)
		for what, err := range map[string]error{"artifact": artErr, "scenario": specErr, "job": jobErr} {
			if code := cluster.Status(err); err != nil && code != http.StatusBadRequest &&
				code != http.StatusNotFound && code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s refused with %d: %v", what, code, err)
			}
		}
		cluster.JobKey(name)
		sum := sha256.Sum256([]byte(name))
		key := hex.EncodeToString(sum[:])
		if got, ok := cluster.JobKey(cluster.JobID(key)); !ok || got != key {
			t.Errorf("JobKey(JobID(%s)) = %q, %v", key, got, ok)
		}
	})
}
