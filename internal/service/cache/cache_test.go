package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
)

func TestKeyCanonicalisation(t *testing.T) {
	base := harness.Config{Iters: 100}
	if Key("fig3", base) != Key("fig3", harness.Config{Iters: 100, Env: &core.Env{Exact: true, Width: 3}}) {
		t.Error("how a render runs (Config.Env) must not reach its key")
	}
	if Key("fig3", base) == Key("fig4", base) {
		t.Error("different artifacts must key differently")
	}
	if Key("fig3", base) == Key("fig3", harness.Config{Iters: 101}) {
		t.Error("different iters must key differently")
	}
}

func TestGetOrFillCachesAndHits(t *testing.T) {
	c := New(0, 0)
	var runs atomic.Int64
	fill := func() ([]byte, error) {
		runs.Add(1)
		return []byte("body"), nil
	}
	e1, hit, err := c.GetOrFill("k", fill)
	if err != nil || hit {
		t.Fatalf("first fill: hit=%v err=%v", hit, err)
	}
	e2, hit, err := c.GetOrFill("k", fill)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if string(e1.Body) != "body" || string(e2.Body) != "body" || e1.ContentHash != e2.ContentHash {
		t.Fatalf("entries diverge: %+v vs %+v", e1, e2)
	}
	if e1.ContentHash == "" {
		t.Fatal("content hash missing")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(0, 0)
	calls := 0
	_, _, err := c.GetOrFill("k", func() ([]byte, error) {
		calls++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	_, hit, err := c.GetOrFill("k", func() ([]byte, error) {
		calls++
		return []byte("ok"), nil
	})
	if err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2 (errors must not cache)", calls)
	}
}

func TestSingleflightCollapsesConcurrentFills(t *testing.T) {
	c := New(0, 0)
	var runs atomic.Int64
	gate := make(chan struct{})
	const N = 16
	var wg sync.WaitGroup
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func() {
			defer wg.Done()
			e, _, err := c.GetOrFill("k", func() ([]byte, error) {
				runs.Add(1)
				<-gate // hold the flight open so followers must share it
				return []byte("shared"), nil
			})
			if err != nil || string(e.Body) != "shared" {
				t.Errorf("GetOrFill: %q %v", e.Body, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fill ran %d times under %d concurrent callers, want 1", n, N)
	}
	s := c.Stats()
	if got := s.Hits + s.Shared + s.Misses; got != N {
		t.Fatalf("lookups accounted %d, want %d (stats %+v)", got, N, s)
	}
}

// cached reports whether c holds key, without touching recency order
// or the hit/miss counters the assertions read.
func cached(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func TestLRUEntryBound(t *testing.T) {
	c := New(0, 2)
	for i := 0; i < 4; i++ {
		body := []byte(fmt.Sprintf("body-%d", i))
		if _, _, err := c.GetOrFill(fmt.Sprintf("k%d", i), func() ([]byte, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 evictions", s)
	}
	// Oldest keys evicted, newest kept.
	if cached(c, "k0") {
		t.Error("k0 survived eviction")
	}
	if !cached(c, "k3") {
		t.Error("k3 evicted prematurely")
	}
}

func TestLRUByteBoundAndRecency(t *testing.T) {
	c := New(20, 0) // three 8-byte bodies exceed 20 bytes
	fill := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	c.GetOrFill("a", fill("aaaaaaaa"))
	c.GetOrFill("b", fill("bbbbbbbb"))
	// Touch a through GetOrFill's hit path so b is the LRU victim.
	c.GetOrFill("a", func() ([]byte, error) {
		t.Fatal("a missed before its touch")
		return nil, nil
	})
	c.GetOrFill("c", fill("cccccccc"))
	if cached(c, "b") {
		t.Error("b should have been evicted (LRU)")
	}
	if !cached(c, "a") {
		t.Error("a was recently used and must survive")
	}
	if s := c.Stats(); s.Bytes > 20 {
		t.Errorf("bytes = %d beyond bound", s.Bytes)
	}
}

func TestOversizedEntryStillServable(t *testing.T) {
	c := New(4, 0)
	big := []byte("way-more-than-four-bytes")
	e, _, err := c.GetOrFill("big", func() ([]byte, error) { return big, nil })
	if err != nil || string(e.Body) != string(big) {
		t.Fatalf("oversized fill: %v", err)
	}
	if !cached(c, "big") {
		t.Fatal("an oversized entry must still be kept (never evict the only entry)")
	}
}

// TestPanickingFillCompletesItsFlight: a fill that panics takes its own
// caller down the stack, but the follower waiting on it gets an error
// instead of blocking forever, and the key is retryable afterwards.
func TestPanickingFillCompletesItsFlight(t *testing.T) {
	c := New(0, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.GetOrFill("k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill("k", func() ([]byte, error) { return []byte("follower ran its own fill"), nil })
		follower <- err
	}()
	// Let the follower reach the flight (it books a shared fill) before
	// the leader blows up; a follower that arrives later simply refills.
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the fill's own panic", p)
	}
	select {
	case err := <-follower:
		if !errors.Is(err, ErrFillPanicked) {
			t.Fatalf("follower got %v, want ErrFillPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked on the panicked fill")
	}
	e, hit, err := c.GetOrFill("k", func() ([]byte, error) { return []byte("retry"), nil })
	if err != nil || hit || string(e.Body) != "retry" {
		t.Fatalf("retry after panic: body=%q hit=%v err=%v", e.Body, hit, err)
	}
}
