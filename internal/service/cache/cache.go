// Package cache is the deterministic result cache of the serving
// layer. Artifacts are pure functions of (name, harness.Config) — the
// PR 1/PR 2 determinism contract guarantees a re-run renders
// byte-identical output — so rendered bodies are cached under a
// canonical key derived from exactly those two values and served
// without re-simulating.
//
// The cache is LRU-bounded by both total body bytes and entry count,
// and deduplicates concurrent fills: any number of goroutines asking
// for the same key while a fill is in flight share the single
// simulation run (a singleflight), so a burst of identical requests
// costs one Run however wide the burst is.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"swallow/internal/harness"
)

// Key derives the canonical cache key for an artifact rendered under a
// config: any semantic difference maps to a different key.
func Key(artifact string, cfg harness.Config) string {
	blob, err := json.Marshal(struct {
		Artifact string         `json:"artifact"`
		Config   harness.Config `json:"config"`
	}{artifact, cfg})
	if err != nil {
		// harness.Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("cache: key marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Entry is one cached render.
type Entry struct {
	// Body is the rendered artifact. Callers must not mutate it.
	Body []byte
	// ContentHash is the hex sha256 of Body — the HTTP ETag value.
	ContentHash string
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits, Misses, Evictions int64
	// Shared counts GetOrFill callers that piggybacked on another
	// caller's in-flight fill instead of running their own.
	Shared  int64
	Entries int
	Bytes   int64
}

// entry is the internal LRU record.
type entry struct {
	key string
	val Entry
}

// ErrFillPanicked is what the followers of a fill that panicked get.
var ErrFillPanicked = errors.New("cache: fill panicked")

// flight is one in-progress fill; followers wait on done.
type flight struct {
	done chan struct{}
	val  Entry
	err  error
}

// Cache is a bounded LRU of rendered artifacts with singleflight
// fills. The zero value is not usable; call New.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	maxEnt   int
	bytes    int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	inflight map[string]*flight
	stats    Stats
}

// New builds a cache bounded to maxBytes total body bytes and
// maxEntries renders. Non-positive bounds mean "unbounded" in that
// dimension. Entries never expire by age: artifacts are pure, so a
// cached body is valid until capacity evicts it.
func New(maxBytes int64, maxEntries int) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		maxEnt:   maxEntries,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// GetOrFill returns the cached entry for key, or runs fill to produce
// it. Concurrent callers for the same key share one fill: exactly one
// runs, the rest block and receive its result. hit reports whether the
// caller was served without running fill itself (a cache hit or a
// shared in-flight fill). Errors are not cached — a later caller
// retries the fill — and neither is a fill that panics.
func (c *Cache) GetOrFill(key string, fill func() ([]byte, error)) (e Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	c.stats.Misses++
	// The flight carries ErrFillPanicked until fill returns, and
	// completes in a defer: if fill panics, followers get that error
	// instead of blocking forever and the key stays retryable, while the
	// panic itself carries on up the leader's stack.
	f := &flight{done: make(chan struct{}), err: ErrFillPanicked}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.add(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()

	body, err := fill()
	if err == nil {
		sum := sha256.Sum256(body)
		f.val = Entry{Body: body, ContentHash: hex.EncodeToString(sum[:])}
	}
	f.err = err
	return f.val, false, err
}

// add inserts a filled entry and evicts from the LRU tail until both
// bounds hold again. Caller holds mu.
func (c *Cache) add(key string, val Entry) {
	if el, ok := c.items[key]; ok {
		// A racing fill for the same key landed first; keep the newer
		// body (byte-identical by determinism) and fix accounting.
		ent := el.Value.(*entry)
		c.bytes += int64(len(val.Body)) - int64(len(ent.val.Body))
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val.Body))
	}
	for c.over() {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.val.Body))
		c.stats.Evictions++
	}
}

// over reports whether either bound is exceeded. Caller holds mu. A
// single entry larger than maxBytes is still kept (the loop in add
// stops at one entry) so oversized artifacts remain servable.
func (c *Cache) over() bool {
	if c.ll.Len() <= 1 {
		return false
	}
	return (c.maxEnt > 0 && c.ll.Len() > c.maxEnt) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// HitRatio is hits over lookups, 0 when nothing has been looked up.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
