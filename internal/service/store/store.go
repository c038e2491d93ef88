// Package store is the disk-backed second tier of the result cache:
// a content-addressed store of rendered artifacts keyed by the exact
// cache key the memory LRU uses (cache.Key over (artifact, projected
// config), or the scenario spec hash). Determinism makes an entry
// valid forever for a given registry version — a stored body is
// byte-identical to a re-render — so entries never expire by time;
// they leave only by capacity eviction or version invalidation.
//
// Each entry is one flat file named by its 64-hex key, written with
// the classic atomic discipline (temp file in the same directory,
// then rename) so a crash mid-write never leaves a partial entry
// under a live name. The frame is self-verifying: a magic line, a
// JSON header carrying provenance (registry version, artifact,
// canonical spec, metrics, render time) plus the body's length, CRC32
// and sha256, then the spec and body bytes. Reads re-check all of it;
// any mismatch — truncation, bit flip, wrong registry version —
// quarantines the file (moved aside for postmortem, never served)
// and reports a plain miss, so the caller re-renders and the next
// Put repairs the entry.
//
// The store also persists the named-scenario registry: one record per
// name holding its pinned spec hash, full version history and the
// canonical spec of the current pin, so `PUT /scenarios/{name}` pins
// survive restarts alongside the rendered results they point at. A
// record whose spec does not hash to its pin is skipped at open, as a
// body that does not hash to its ETag is never served.
//
// A Store with an empty Dir runs in memory-only mode: the body tier
// is disabled (Get always misses, Put is a no-op) while names live in
// process memory, so the serving layer can offer named scenarios even
// without -store-dir.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// magic heads every object file; bump it if the frame layout changes.
const magic = "swst1\n"

// Options configures a Store.
type Options struct {
	// Dir is the store root. Empty means memory-only mode: Get always
	// misses and Put is a no-op, but named scenarios still work (in
	// process memory).
	Dir string
	// Version is the registry version entries are valid under —
	// typically api.RegistryVersion(), which mixes the build identity
	// with the registered artifact set. An on-disk entry written under
	// any other version reads back as a miss (and is quarantined).
	// Empty means "dev".
	Version string
	// MaxBytes bounds the objects directory; the least recently used
	// entries are deleted once the total frame bytes exceed it
	// (<= 0: 1 GiB). A single oversized entry is kept so the largest
	// artifact stays servable.
	MaxBytes int64
	// Logf receives operational lines (quarantines, unreadable name
	// records). Nil discards them.
	Logf func(format string, args ...any)
}

// Meta is the provenance a Put records next to the body.
type Meta struct {
	// Artifact labels what rendered: a registry name or
	// "scenario:<hash>".
	Artifact string
	// Spec is the canonical scenario spec JSON for scenario renders,
	// nil for named artifacts.
	Spec []byte
	// Metrics are the artifact's numeric outputs, when the renderer
	// computed them.
	Metrics map[string]float64
	// RenderMicros is the original cold render time.
	RenderMicros int64
}

// Entry is one stored render read back from disk, fully verified.
type Entry struct {
	// Body is the rendered artifact text.
	Body []byte
	// ContentHash is the hex sha256 of Body (the HTTP ETag value),
	// re-verified against the bytes on every read.
	ContentHash string
	// Artifact / Spec / Metrics / RenderMicros echo the Meta the entry
	// was written with; CreatedUnix stamps the write.
	Artifact     string
	Spec         []byte
	Metrics      map[string]float64
	RenderMicros int64
	CreatedUnix  int64
}

// Stats is a point-in-time snapshot of store counters. All *_total
// style fields are monotonic for the life of the process.
type Stats struct {
	// Hits / Misses count Get outcomes. A quarantined read counts as
	// both a Corrupt and a Miss — corrupt entries are never served.
	Hits, Misses int64
	// Writes counts successful Puts; WriteErrors failed ones.
	Writes, WriteErrors int64
	// BytesWritten is the cumulative frame bytes successfully written.
	BytesWritten int64
	// Evictions counts entries removed by the size bound; Corrupt
	// counts entries quarantined by a failed read verification
	// (truncation, bit flip, wrong registry version).
	Evictions, Corrupt int64
	// Entries / Bytes are the current object count and frame bytes on
	// disk; Names is the pinned scenario-name count.
	Entries int
	Bytes   int64
	Names   int
}

// NameVersion is one pin in a name's history.
type NameVersion struct {
	Version    int    `json:"version"`
	Hash       string `json:"hash"`
	PinnedUnix int64  `json:"pinned_unix"`
}

// NameRecord is the full state of one pinned scenario name.
type NameRecord struct {
	Name string `json:"name"`
	// Hash / Version are the current pin (the last element of
	// Versions).
	Hash     string        `json:"hash"`
	Version  int           `json:"version"`
	Versions []NameVersion `json:"versions"`
	// Spec is the current pin's canonical spec, compact JSON whose
	// sha256 is Hash.
	Spec json.RawMessage `json:"spec"`
}

// header is the JSON line between the magic and the payload.
type header struct {
	Key          string             `json:"key"`
	Version      string             `json:"version"`
	Artifact     string             `json:"artifact,omitempty"`
	ContentHash  string             `json:"content_sha256"`
	BodyLen      int64              `json:"body_len"`
	BodyCRC      uint32             `json:"body_crc32"`
	SpecLen      int64              `json:"spec_len,omitempty"`
	RenderMicros int64              `json:"render_micros,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	CreatedUnix  int64              `json:"created_unix"`
}

// indexEnt is one object in the in-memory LRU index.
type indexEnt struct {
	key  string
	size int64
}

// Store is the disk tier. All index and name state is guarded by mu;
// object file reads happen outside the lock (renames are atomic, so a
// read races a concurrent Put or eviction only into a complete old
// frame, a complete new frame, or a clean miss).
type Store struct {
	dir      string // "" = memory-only mode
	version  string
	maxBytes int64
	logf     func(format string, args ...any)

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	index map[string]*list.Element
	bytes int64
	stats Stats
	names map[string]*NameRecord
}

// Open builds a Store over opts.Dir, creating the directory layout,
// deleting leftover temp files, loading the name registry, and
// scanning existing objects into the LRU index (recency seeded from
// file mtimes, so the eviction order survives restarts). Objects
// whose header is unreadable or carries a different registry version
// are quarantined immediately.
func Open(opts Options) (*Store, error) {
	if opts.Version == "" {
		opts.Version = "dev"
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 30
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Store{
		dir:      opts.Dir,
		version:  opts.Version,
		maxBytes: opts.MaxBytes,
		logf:     opts.Logf,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
		names:    make(map[string]*NameRecord),
	}
	if s.dir == "" {
		return s, nil
	}
	for _, sub := range []string{"objects", "quarantine", "names"} {
		if err := os.MkdirAll(filepath.Join(s.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	if err := s.scanObjects(); err != nil {
		return nil, err
	}
	if err := s.loadNames(); err != nil {
		return nil, err
	}
	return s, nil
}

// Memory returns a memory-only Store (no disk tier) under version.
// It cannot fail: there is no I/O to go wrong.
func Memory(version string) *Store {
	s, _ := Open(Options{Version: version})
	return s
}

// scanObjects seeds the LRU index from the objects directory.
func (s *Store) scanObjects() error {
	dir := filepath.Join(s.dir, "objects")
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: scan: %v", err)
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // crashed mid-write
			continue
		}
		if !ValidKey(name) {
			s.logf("store: ignoring stray file %s", name)
			continue
		}
		// Verify just the header here (cheap); body verification stays
		// lazy, on first Get. A wrong-version or unreadable header
		// invalidates the entry right away.
		if err := s.checkHeader(name); err != nil {
			s.quarantine(name, err)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced an eviction/quarantine; nothing to index
		}
		found = append(found, scanned{name, info.Size(), info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found { // oldest first, so the newest ends at the front
		s.index[f.key] = s.ll.PushFront(&indexEnt{key: f.key, size: f.size})
		s.bytes += f.size
	}
	return nil
}

// checkHeader reads and validates the frame prefix of one object.
func (s *Store) checkHeader(key string) error {
	f, err := os.Open(s.objectPath(key))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 8192)
	n, _ := f.Read(buf)
	_, _, err = parseHeader(key, s.version, buf[:n])
	return err
}

// loadNames reads every persisted name record.
func (s *Store) loadNames() error {
	dir := filepath.Join(s.dir, "names")
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: names: %v", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			s.logf("store: name record %s: %v", de.Name(), err)
			continue
		}
		var rec NameRecord
		if err := json.Unmarshal(blob, &rec); err != nil || rec.Name == "" ||
			rec.Name+".json" != de.Name() || len(rec.Versions) == 0 {
			s.logf("store: skipping unreadable name record %s", de.Name())
			continue
		}
		if hexSHA256(rec.Spec) != rec.Hash {
			s.logf("store: skipping name record %s: spec does not hash to %.16s...", de.Name(), rec.Hash)
			continue
		}
		s.names[rec.Name] = &rec
	}
	return nil
}

// Version reports the registry version this store validates against.
func (s *Store) Version() string { return s.version }

// Enabled reports whether the disk tier is active (Dir was set).
func (s *Store) Enabled() bool { return s.dir != "" }

// ValidKey reports whether key is a well-formed store key: exactly 64
// lowercase hex characters (a sha256), which also makes it safe as a
// file name.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key)
}

// Get reads one entry, fully verified (magic, header, key, registry
// version, lengths, CRC32, sha256). Verification failure quarantines
// the file and reports a miss; the entry is never served corrupt.
func (s *Store) Get(key string) (Entry, bool) {
	if s.dir == "" || !ValidKey(key) {
		return Entry{}, false
	}
	path := s.objectPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	ent, err := decodeFrame(key, s.version, blob)
	if err != nil {
		s.quarantine(key, err)
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
	}
	s.stats.Hits++
	s.mu.Unlock()
	// Touch the mtime so recency survives a restart's index rescan.
	now := time.Now()
	os.Chtimes(path, now, now)
	return ent, true
}

// Put writes one entry atomically (temp file + rename) and evicts
// from the LRU tail until the size bound holds. Concurrent Puts of
// the same key are safe: renames are atomic and determinism makes the
// bodies byte-identical, so last-writer-wins changes nothing.
func (s *Store) Put(key string, body []byte, meta Meta) error {
	if s.dir == "" {
		return nil
	}
	if !ValidKey(key) {
		return fmt.Errorf("store: bad key %q", key)
	}
	frame := encodeFrame(key, s.version, body, meta)
	tmp, err := writeTemp(s.objectPath(key), frame)
	if err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		return fmt.Errorf("store: put %s: %v", key[:16], err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The rename runs under mu so it serializes with eviction and
	// quarantine, which unlink by the same name.
	if err := os.Rename(tmp, s.objectPath(key)); err != nil {
		os.Remove(tmp)
		s.stats.WriteErrors++
		return fmt.Errorf("store: put %s: %v", key[:16], err)
	}
	size := int64(len(frame))
	if el, ok := s.index[key]; ok {
		ie := el.Value.(*indexEnt)
		s.bytes += size - ie.size
		ie.size = size
		s.ll.MoveToFront(el)
	} else {
		s.index[key] = s.ll.PushFront(&indexEnt{key: key, size: size})
		s.bytes += size
	}
	s.stats.Writes++
	s.stats.BytesWritten += size
	s.evictLocked()
	return nil
}

// evictLocked deletes LRU-tail objects until the byte bound holds,
// always keeping at least one entry. Caller holds mu.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		tail := s.ll.Back()
		ie := tail.Value.(*indexEnt)
		s.ll.Remove(tail)
		delete(s.index, ie.key)
		s.bytes -= ie.size
		s.stats.Evictions++
		os.Remove(s.objectPath(ie.key))
	}
}

// quarantine moves a failed object aside (never deleting the
// evidence) and drops it from the index.
func (s *Store) quarantine(key string, reason error) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.%d", key, time.Now().UnixNano()))
	s.mu.Lock()
	err := os.Rename(s.objectPath(key), dst)
	s.stats.Corrupt++
	if el, ok := s.index[key]; ok {
		ie := el.Value.(*indexEnt)
		s.ll.Remove(el)
		delete(s.index, key)
		s.bytes -= ie.size
	}
	s.mu.Unlock()
	if err != nil {
		// A concurrent reader already moved it; the miss still stands.
		s.logf("store: quarantine %.16s...: %v (%v)", key, reason, err)
		return
	}
	s.logf("store: quarantined %.16s...: %v", key, reason)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	st.Bytes = s.bytes
	st.Names = len(s.names)
	return st
}

// encodeFrame builds the self-verifying object frame.
func encodeFrame(key, version string, body []byte, meta Meta) []byte {
	h := header{
		Key:          key,
		Version:      version,
		Artifact:     meta.Artifact,
		ContentHash:  hexSHA256(body),
		BodyLen:      int64(len(body)),
		BodyCRC:      crc32.ChecksumIEEE(body),
		SpecLen:      int64(len(meta.Spec)),
		RenderMicros: meta.RenderMicros,
		Metrics:      meta.Metrics,
		CreatedUnix:  time.Now().Unix(),
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		// header is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("store: header marshal: %v", err))
	}
	buf := make([]byte, 0, len(magic)+len(hdr)+1+len(meta.Spec)+len(body))
	buf = append(buf, magic...)
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	buf = append(buf, meta.Spec...)
	buf = append(buf, body...)
	return buf
}

// parseHeader checks a frame's magic and header line — the key it was
// filed under and the registry version it was written for — and
// returns the header and the payload after it.
func parseHeader(key, version string, blob []byte) (header, []byte, error) {
	var h header
	if !bytes.HasPrefix(blob, []byte(magic)) {
		return h, nil, fmt.Errorf("bad magic")
	}
	rest := blob[len(magic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return h, nil, fmt.Errorf("truncated header")
	}
	if err := json.Unmarshal(rest[:nl], &h); err != nil {
		return h, nil, fmt.Errorf("header: %v", err)
	}
	if h.Key != key {
		return h, nil, fmt.Errorf("key mismatch: header says %.16s...", h.Key)
	}
	if h.Version != version {
		return h, nil, fmt.Errorf("registry version %q (store runs %q)", h.Version, version)
	}
	return h, rest[nl+1:], nil
}

// decodeFrame verifies and unpacks one object frame.
func decodeFrame(key, version string, blob []byte) (Entry, error) {
	h, payload, err := parseHeader(key, version, blob)
	if err != nil {
		return Entry{}, err
	}
	if int64(len(payload)) != h.SpecLen+h.BodyLen || h.SpecLen < 0 || h.BodyLen < 0 {
		return Entry{}, fmt.Errorf("payload length %d (header says %d+%d)",
			len(payload), h.SpecLen, h.BodyLen)
	}
	spec := payload[:h.SpecLen]
	body := payload[h.SpecLen:]
	if crc32.ChecksumIEEE(body) != h.BodyCRC {
		return Entry{}, fmt.Errorf("body crc mismatch")
	}
	if hexSHA256(body) != h.ContentHash {
		return Entry{}, fmt.Errorf("body sha256 mismatch")
	}
	if len(spec) == 0 {
		spec = nil
	}
	return Entry{
		Body:         body,
		ContentHash:  h.ContentHash,
		Artifact:     h.Artifact,
		Spec:         spec,
		Metrics:      h.Metrics,
		RenderMicros: h.RenderMicros,
		CreatedUnix:  h.CreatedUnix,
	}, nil
}

// nameRE is the scenario-name grammar: a letter or digit, then up to
// 63 more of [A-Za-z0-9._-] — file-name safe by construction.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidName reports whether name can be pinned.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// PinName points name at spec, whose sha256 is hash, appending to its
// version history and persisting the record, spec included, as one
// file. spec must be compact JSON as json.Marshal writes it, so the
// record keeps it byte for byte. Re-pinning the current hash is
// idempotent: no new version, changed=false.
func (s *Store) PinName(name, hash string, spec []byte) (NameRecord, bool, error) {
	if !ValidName(name) {
		return NameRecord{}, false, fmt.Errorf("store: bad scenario name %q", name)
	}
	if hexSHA256(spec) != hash {
		return NameRecord{}, false, fmt.Errorf("store: spec does not hash to %q", hash)
	}
	if enc, err := json.Marshal(json.RawMessage(spec)); err != nil || !bytes.Equal(enc, spec) {
		return NameRecord{}, false, fmt.Errorf("store: spec for %q is not compact JSON", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.names[name]
	if rec != nil && rec.Hash == hash {
		return copyRecord(rec), false, nil
	}
	next := NameRecord{Name: name, Hash: hash, Spec: append(json.RawMessage(nil), spec...)}
	if rec != nil {
		next.Versions = append(next.Versions, rec.Versions...)
	}
	next.Versions = append(next.Versions, NameVersion{
		Version:    len(next.Versions) + 1,
		Hash:       hash,
		PinnedUnix: time.Now().Unix(),
	})
	next.Version = len(next.Versions)
	if s.dir != "" {
		if err := s.writeFileAtomic(filepath.Join(s.dir, "names", name+".json"), mustJSON(next)); err != nil {
			return NameRecord{}, false, fmt.Errorf("store: pin %s: %v", name, err)
		}
	}
	s.names[name] = &next
	return copyRecord(&next), true, nil
}

// NameInfo returns the record for one pinned name.
func (s *Store) NameInfo(name string) (NameRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.names[name]
	if !ok {
		return NameRecord{}, false
	}
	return copyRecord(rec), true
}

// Names lists every pinned name, sorted.
func (s *Store) Names() []NameRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NameRecord, 0, len(s.names))
	for _, rec := range s.names {
		out = append(out, copyRecord(rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeTemp writes blob to a fresh temp file beside path, named
// path's base + ".tmp*", and returns its name; on failure it leaves no
// temp file behind. The caller renames it into place.
func writeTemp(path string, blob []byte) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// writeFileAtomic is temp-file + rename in path's directory.
func (s *Store) writeFileAtomic(path string, blob []byte) error {
	tmp, err := writeTemp(path, blob)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func copyRecord(rec *NameRecord) NameRecord {
	out := *rec
	out.Versions = append([]NameVersion(nil), rec.Versions...)
	return out
}

// hexSHA256 is the hex sha256 of b: a body's ETag, a spec's hash.
func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("store: marshal: %v", err))
	}
	return blob
}
