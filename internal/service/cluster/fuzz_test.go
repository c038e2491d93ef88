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
	"swallow/internal/service/store"
)

// FuzzResolve holds the resolver to what a client may send any process
// of the service: Resolver.Artifact, Scenario and Job never panic, and
// every refusal maps through Status to the caller's fault (400, 404 or
// 413), never a 500. JobKey never panics either, and recovers the key
// of any ID JobID mints. The fuzzer varies an artifact name (which is
// also read as a job ID), a query string, and a body read both as a
// spec and as a job. The seeds are the spec files in specDirs (the
// registry's own and the examples) under the key table's query rows and
// as job bodies, and job bodies for every registered name.
func FuzzResolve(f *testing.F) {
	queries := []string{"", quickQuery, overrideQuery}
	var files []string
	for _, dir := range specDirs {
		found, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if len(found) == 0 {
			f.Fatalf("no spec files in %s to seed from", dir)
		}
		files = append(files, found...)
	}
	for _, file := range files {
		blob, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range queries {
			f.Add("", q, blob)
		}
		f.Add("", "", []byte(`{"scenario": `+string(blob)+", "+quickJob+"}"))
	}
	for _, name := range harness.Names() {
		for i, extra := range []string{"", ", " + quickJob, ", " + overrideJob} {
			f.Add(name, queries[i], []byte(fmt.Sprintf(`{"artifact": %q%s}`, name, extra)))
		}
	}
	f.Add(cluster.JobID(parentKeys[0].def), "iters=0", []byte(`{"artifact": "table1", "scenario": {}}`))

	rs := cluster.NewResolver()
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

// TestSpecHashIsSHA256OfSpec: for every spec file FuzzResolve seeds
// from, a scenario Target's Hash is the sha256 of its Spec. A pinned
// name's record is checked against exactly that, so each of them pins.
func TestSpecHashIsSHA256OfSpec(t *testing.T) {
	rs := cluster.NewResolver()
	st := store.Memory("test")
	for _, dir := range specDirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if len(files) == 0 {
			t.Fatalf("no spec files in %s", dir)
		}
		for _, file := range files {
			blob, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			target, err := rs.Scenario(blob, nil)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if sum := sha256.Sum256(target.Spec); hex.EncodeToString(sum[:]) != target.Hash {
				t.Errorf("%s: sha256 of the canonical spec is not its hash %s", file, target.Hash)
			}
			if _, _, err := st.PinName("spec", target.Hash, target.Spec); err != nil {
				t.Errorf("%s: %v", file, err)
			}
		}
	}
}
