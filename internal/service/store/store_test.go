package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// keyFor derives a deterministic valid key for test bodies.
func keyFor(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	key := keyFor("k1")
	body := []byte("table body\nrow 1\n")
	meta := Meta{
		Artifact:     "table1",
		Spec:         []byte(`{"name":"x"}`),
		Metrics:      map[string]float64{"latency_ns": 42.5},
		RenderMicros: 1234,
	}
	if err := s.Put(key, body, meta); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ent, ok := s.Get(key)
	if !ok {
		t.Fatal("Get: miss after Put")
	}
	if !bytes.Equal(ent.Body, body) {
		t.Fatalf("body mismatch: %q", ent.Body)
	}
	sum := sha256.Sum256(body)
	if ent.ContentHash != hex.EncodeToString(sum[:]) {
		t.Fatalf("content hash mismatch: %s", ent.ContentHash)
	}
	if ent.Artifact != "table1" || !bytes.Equal(ent.Spec, meta.Spec) ||
		ent.RenderMicros != 1234 || ent.Metrics["latency_ns"] != 42.5 {
		t.Fatalf("meta mismatch: %+v", ent)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Writes != 1 || st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMissAndBadKey(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	if _, ok := s.Get(keyFor("absent")); ok {
		t.Fatal("hit on absent key")
	}
	if _, ok := s.Get("../../etc/passwd"); ok {
		t.Fatal("hit on invalid key")
	}
	if err := s.Put("not-a-key", []byte("x"), Meta{}); err == nil {
		t.Fatal("Put accepted an invalid key")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("want 1 miss (invalid keys don't count), got %+v", st)
	}
}

// corruptionCase mutates a stored object file and expects the next
// Get to quarantine it and miss.
func corruptionCase(t *testing.T, name string, mutate func(t *testing.T, path string)) {
	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir, Version: "v1"})
		key := keyFor(name)
		body := []byte("pristine body bytes for " + name)
		if err := s.Put(key, body, Meta{Artifact: name}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		path := filepath.Join(dir, "objects", key)
		mutate(t, path)
		if _, ok := s.Get(key); ok {
			t.Fatal("corrupt entry served as a hit")
		}
		st := s.Stats()
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("want corrupt=1 miss=1, got %+v", st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("corrupt file still live under objects/")
		}
		qs, err := os.ReadDir(filepath.Join(dir, "quarantine"))
		if err != nil || len(qs) != 1 {
			t.Fatalf("want 1 quarantined file, got %d (%v)", len(qs), err)
		}
		// A re-render (re-Put) repairs the entry.
		if err := s.Put(key, body, Meta{Artifact: name}); err != nil {
			t.Fatalf("repair Put: %v", err)
		}
		ent, ok := s.Get(key)
		if !ok || !bytes.Equal(ent.Body, body) {
			t.Fatal("repair Put did not restore the entry")
		}
	})
}

func TestCorruption(t *testing.T) {
	corruptionCase(t, "truncated", func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)-7], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "bitflip", func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-3] ^= 0x40 // flip a bit inside the body
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "garbage", func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("not a frame at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWrongVersionIsMissAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	key := keyFor("versioned")
	if err := s1.Put(key, []byte("old registry output"), Meta{}); err != nil {
		t.Fatal(err)
	}
	// A new registry version opens the same directory: the v1 entry is
	// quarantined at open (header scan), so the index starts empty.
	s2 := mustOpen(t, Options{Dir: dir, Version: "v2"})
	if _, ok := s2.Get(key); ok {
		t.Fatal("wrong-version entry served")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("want open-time quarantine, got %+v", st)
	}
	// The new version can store its own render under the same key.
	if err := s2.Put(key, []byte("new registry output"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if ent, ok := s2.Get(key); !ok || string(ent.Body) != "new registry output" {
		t.Fatal("repair under new version failed")
	}
}

func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	bodies := map[string][]byte{}
	for i := 0; i < 5; i++ {
		key := keyFor(fmt.Sprintf("warm-%d", i))
		body := []byte(fmt.Sprintf("body %d", i))
		bodies[key] = body
		if err := s1.Put(key, body, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	want := s1.Stats()
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	st := s2.Stats()
	if st.Entries != want.Entries || st.Bytes != want.Bytes {
		t.Fatalf("reopen index: got %d entries/%d bytes, want %d/%d",
			st.Entries, st.Bytes, want.Entries, want.Bytes)
	}
	for key, body := range bodies {
		ent, ok := s2.Get(key)
		if !ok || !bytes.Equal(ent.Body, body) {
			t.Fatalf("reopen Get %s: ok=%v", key[:8], ok)
		}
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	// Each frame is roughly header (~200B) + 1000B body; bound to ~3.
	s := mustOpen(t, Options{Dir: dir, Version: "v1", MaxBytes: 4000})
	body := bytes.Repeat([]byte("x"), 1000)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = keyFor(fmt.Sprintf("evict-%d", i))
	}
	if err := s.Put(keys[0], body, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keys[1], body, Meta{}); err != nil {
		t.Fatal(err)
	}
	// Touch key 0 so key 1 becomes the LRU tail.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("warm get missed")
	}
	for _, k := range keys[2:] {
		if err := s.Put(k, body, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 || st.Bytes > 4000 {
		t.Fatalf("no eviction under pressure: %+v", st)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU-tail entry survived eviction")
	}
	if _, ok := s.Get(keys[4]); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestConcurrentSameKeyWriters(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	key := keyFor("contended")
	body := []byte("deterministic render output: identical from every writer")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := s.Put(key, body, Meta{Artifact: "contended"}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if ent, ok := s.Get(key); ok && !bytes.Equal(ent.Body, body) {
					t.Error("Get observed a torn body")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Corrupt != 0 || st.WriteErrors != 0 || st.Entries != 1 {
		t.Fatalf("concurrent writers corrupted state: %+v", st)
	}
	ent, ok := s.Get(key)
	if !ok || !bytes.Equal(ent.Body, body) {
		t.Fatal("final Get mismatch")
	}
	// No stray temp files survive the stampede.
	des, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		for _, de := range des {
			t.Logf("left behind: %s", de.Name())
		}
		t.Fatalf("want exactly 1 object file, got %d", len(des))
	}
}

func TestMemoryMode(t *testing.T) {
	s := Memory("v1")
	key := keyFor("mem")
	if err := s.Put(key, []byte("body"), Meta{}); err != nil {
		t.Fatalf("memory Put: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("memory-mode Get hit (body tier should be disabled)")
	}
	if s.Enabled() {
		t.Fatal("memory mode reports Enabled")
	}
	// Named scenarios still work in process memory.
	spec := `{"name":"s"}`
	hash := keyFor(spec)
	if _, changed, err := s.PinName("demo", hash, []byte(spec)); err != nil || !changed {
		t.Fatalf("PinName: changed=%v err=%v", changed, err)
	}
	if rec, ok := s.NameInfo("demo"); !ok || rec.Hash != hash || rec.Version != 1 || string(rec.Spec) != spec {
		t.Fatalf("NameInfo: %+v ok=%v", rec, ok)
	}
}

func TestNamesPersistAndVersion(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	a, b := []byte(`{"spec":"a"}`), []byte(`{"spec":"b"}`)
	h1, h2 := keyFor(string(a)), keyFor(string(b))
	rec, changed, err := s1.PinName("exp", h1, a)
	if err != nil || !changed || rec.Version != 1 {
		t.Fatalf("pin 1: %+v changed=%v err=%v", rec, changed, err)
	}
	// Idempotent re-pin of the same hash: no new version.
	rec, changed, err = s1.PinName("exp", h1, a)
	if err != nil || changed || rec.Version != 1 {
		t.Fatalf("re-pin same: %+v changed=%v err=%v", rec, changed, err)
	}
	rec, changed, err = s1.PinName("exp", h2, b)
	if err != nil || !changed || rec.Version != 2 || rec.Hash != h2 {
		t.Fatalf("pin 2: %+v changed=%v err=%v", rec, changed, err)
	}
	if _, _, err := s1.PinName("../evil", h1, a); err == nil {
		t.Fatal("PinName accepted a path-traversal name")
	}

	// Reopen: names, history and the current pin's spec all survive.
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	rec, ok := s2.NameInfo("exp")
	if !ok || rec.Version != 2 || rec.Hash != h2 || len(rec.Versions) != 2 ||
		rec.Versions[0].Hash != h1 {
		t.Fatalf("reopened record: %+v ok=%v", rec, ok)
	}
	if all := s2.Names(); len(all) != 1 || all[0].Name != "exp" {
		t.Fatalf("Names(): %+v", all)
	}
	if !bytes.Equal(rec.Spec, b) {
		t.Fatalf("reopened spec %s; want %s", rec.Spec, b)
	}
}

// TestPinNameRefusesUnhashedSpec: a pin's spec must be the bytes its
// hash names, and stay so through the record's JSON encoding; a refused
// pin leaves the name as it was.
func TestPinNameRefusesUnhashedSpec(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s := mustOpen(t, Options{Dir: dir, Version: "v1"})
		spec := []byte(`{"spec":"a"}`)
		if _, _, err := s.PinName("exp", keyFor(`{"spec":"b"}`), spec); err == nil {
			t.Fatalf("dir %q: PinName accepted a spec under another spec's hash", dir)
		}
		if _, _, err := s.PinName("exp", "not-a-hash", spec); err == nil {
			t.Fatalf("dir %q: PinName accepted a malformed hash", dir)
		}
		loose := []byte(`{ "spec": "a" }`)
		if _, _, err := s.PinName("exp", keyFor(string(loose)), loose); err == nil {
			t.Fatalf("dir %q: PinName accepted JSON its record would re-encode", dir)
		}
		if _, ok := s.NameInfo("exp"); ok {
			t.Fatalf("dir %q: a refused pin created the name", dir)
		}
	}
}

func TestCrashedTempFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	key := keyFor("survivor")
	if err := s1.Put(key, []byte("kept"), Meta{}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a temp file next to the objects.
	stray := filepath.Join(dir, "objects", key+".tmp12345")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived reopen")
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("want 1 entry after cleanup, got %+v", st)
	}
}

func BenchmarkPut(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Version: "v1"})
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte("swallow table row\n"), 512) // ~9 KiB
	key := keyFor("bench-put")
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(key, body, Meta{Artifact: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Version: "v1"})
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte("swallow table row\n"), 512)
	key := keyFor("bench-get")
	if err := s.Put(key, body, Meta{Artifact: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
