package api

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swallow/internal/core"
	"swallow/internal/service/cache"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
	"swallow/internal/xs1"
)

// renderBuckets are the render-latency histogram upper bounds in
// seconds (Prometheus `le` labels), spanning cached-adjacent quick
// renders (~ms) through full-config sweeps (~10 s). A +Inf bucket is
// implicit.
var renderBuckets = [...]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// latHist is a Prometheus-style cumulative histogram for one artifact.
// All fields are monotonic for the life of the process: observations
// only ever increment counts, so scrapes see a proper counter series —
// resets happen only at process restart, which scrapers detect by the
// value decreasing (and swallow_uptime_seconds corroborates).
type latHist struct {
	counts [len(renderBuckets) + 1]int64 // +1: the +Inf bucket
	sum    float64
	count  int64
}

// metrics tracks the service counters /metrics reports. Cache and
// queue figures are read live from their owners; only request and
// latency counters live here. Every series this struct owns is
// monotonic within a process lifetime (see latHist).
type metrics struct {
	requests     atomic.Int64 // HTTP requests
	rejected     atomic.Int64 // 429 backpressure responses
	scenarios    atomic.Int64 // well-formed scenario submissions, sync or async
	scenarioPins atomic.Int64 // accepted PUT /scenarios/{name}

	mu      sync.Mutex // guards renders
	renders map[string]*latHist
}

// observe records one cold render of an artifact. The histogram entry
// for an artifact, once created, is never removed or zeroed, so the
// per-artifact series stays monotonic even as the artifact map grows.
func (m *metrics) observe(artifact string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.renders[artifact]
	if h == nil {
		h = &latHist{}
		m.renders[artifact] = h
	}
	sec := d.Seconds()
	for i, ub := range renderBuckets {
		if sec <= ub {
			h.counts[i]++
		}
	}
	h.counts[len(renderBuckets)]++
	h.sum += sec
	h.count++
}

// buildVersion resolves the binary's module version once, for the
// swallow_build_info series. "dev" covers go-run and test binaries.
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "dev"
}()

// write renders the snapshot in Prometheus text form, artifact rows
// name-sorted for deterministic output. Counter semantics: every
// *_total series and the render histogram are monotonic for the life
// of the process; they reset only when the process restarts, which
// scrapers detect as a counter reset (swallow_uptime_seconds dropping
// corroborates it).
func (m *metrics) write(w io.Writer, cs cache.Stats, ss store.Stats, queueDepth, queueCap int, ps core.PoolStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP swallow_build_info Build metadata; constant 1.\n")
	fmt.Fprintf(w, "# TYPE swallow_build_info gauge\n")
	fmt.Fprintf(w, "swallow_build_info{version=%q} 1\n", buildVersion)
	fmt.Fprintf(w, "# HELP swallow_uptime_seconds Seconds since process start.\n")
	fmt.Fprintf(w, "# TYPE swallow_uptime_seconds gauge\n")
	fmt.Fprintf(w, "swallow_uptime_seconds %.3f\n", time.Since(cluster.ProcessStart).Seconds())
	fmt.Fprintf(w, "swallow_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "swallow_requests_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "swallow_scenarios_total %d\n", m.scenarios.Load())
	fmt.Fprintf(w, "swallow_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "swallow_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "swallow_cache_shared_fills_total %d\n", cs.Shared)
	fmt.Fprintf(w, "swallow_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "swallow_cache_hit_ratio %.4f\n", cs.HitRatio())
	fmt.Fprintf(w, "swallow_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "swallow_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "swallow_store_hits_total %d\n", ss.Hits)
	fmt.Fprintf(w, "swallow_store_misses_total %d\n", ss.Misses)
	fmt.Fprintf(w, "swallow_store_writes_total %d\n", ss.Writes)
	fmt.Fprintf(w, "swallow_store_write_errors_total %d\n", ss.WriteErrors)
	fmt.Fprintf(w, "swallow_store_evictions_total %d\n", ss.Evictions)
	fmt.Fprintf(w, "swallow_store_corrupt_total %d\n", ss.Corrupt)
	fmt.Fprintf(w, "swallow_store_bytes_total %d\n", ss.BytesWritten)
	fmt.Fprintf(w, "swallow_store_bytes %d\n", ss.Bytes)
	fmt.Fprintf(w, "swallow_store_entries %d\n", ss.Entries)
	fmt.Fprintf(w, "swallow_store_names %d\n", ss.Names)
	fmt.Fprintf(w, "swallow_scenario_pins_total %d\n", m.scenarioPins.Load())
	fmt.Fprintf(w, "swallow_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "swallow_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "swallow_pool_builds_total %d\n", ps.Builds)
	fmt.Fprintf(w, "swallow_pool_reuses_total %d\n", ps.Reuses)
	fmt.Fprintf(w, "swallow_pool_evictions_total %d\n", ps.Evictions)
	fmt.Fprintf(w, "swallow_pool_idle_machines %d\n", ps.Idle)
	fmt.Fprintf(w, "swallow_pool_idle_bytes %d\n", ps.IdleBytes)
	// Every build takes a snapshot and every park restores one, so these
	// count builds and parks as well as warm prefixes.
	snap := core.ReadSnapshotStats()
	fmt.Fprintf(w, "swallow_snapshot_taken_total %d\n", snap.Taken)
	fmt.Fprintf(w, "swallow_snapshot_restores_total %d\n", snap.Restores)
	fmt.Fprintf(w, "swallow_snapshot_dirty_bytes_total %d\n", snap.DirtyBytes)
	ts := xs1.ReadTurboStats()
	fmt.Fprintf(w, "swallow_turbo_batches_total %d\n", ts.Batches)
	fmt.Fprintf(w, "swallow_turbo_batched_instrs_total %d\n", ts.BatchedInstrs)
	for reason, n := range ts.Exits {
		fmt.Fprintf(w, "swallow_turbo_batch_exits_total{reason=%q} %d\n", xs1.BatchExit(reason), n)
	}
	fmt.Fprintf(w, "swallow_turbo_preexec_slots_total %d\n", ts.PreexecSlots)
	fmt.Fprintf(w, "swallow_turbo_adopted_slots_total %d\n", ts.AdoptedSlots)
	fmt.Fprintf(w, "swallow_turbo_rotation_slots_total %d\n", ts.RotationSlots)
	fmt.Fprintf(w, "swallow_turbo_replayed_slots_total %d\n", ts.ReplayedSlots)
	fmt.Fprintf(w, "swallow_turbo_round_slots_total %d\n", ts.RoundSlots)
	fmt.Fprintf(w, "swallow_turbo_counted_slots_total %d\n", ts.CountedSlots)
	fmt.Fprintf(w, "swallow_turbo_fanouts_total %d\n", ts.Fanouts)
	fmt.Fprintf(w, "swallow_turbo_helped_windows_total %d\n", ts.HelpedWindows)
	fmt.Fprintf(w, "# HELP swallow_turbo_batch_len Turbo batch length in issue slots.\n")
	fmt.Fprintf(w, "# TYPE swallow_turbo_batch_len histogram\n")
	atMost := uint64(0)
	for i, n := range ts.BatchLen {
		atMost += n
		fmt.Fprintf(w, "swallow_turbo_batch_len_bucket{le=\"%d\"} %d\n", 1<<i, atMost)
	}
	fmt.Fprintf(w, "swallow_turbo_batch_len_bucket{le=\"+Inf\"} %d\n", atMost)
	fmt.Fprintf(w, "swallow_turbo_batch_len_count %d\n", atMost)
	fmt.Fprintf(w, "swallow_turbo_decode_hits_total %d\n", ts.DecodeHits)
	fmt.Fprintf(w, "swallow_turbo_decode_misses_total %d\n", ts.DecodeMisses)
	fmt.Fprintf(w, "swallow_turbo_decode_invalidated_total %d\n", ts.DecodeStale)
	names := make([]string, 0, len(m.renders))
	for name := range m.renders {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "# HELP swallow_render_seconds Cold render latency per artifact.\n")
		fmt.Fprintf(w, "# TYPE swallow_render_seconds histogram\n")
	}
	for _, name := range names {
		h := m.renders[name]
		for i, ub := range renderBuckets {
			fmt.Fprintf(w, "swallow_render_seconds_bucket{artifact=%q,le=%q} %d\n",
				name, fmt.Sprintf("%g", ub), h.counts[i])
		}
		fmt.Fprintf(w, "swallow_render_seconds_bucket{artifact=%q,le=\"+Inf\"} %d\n",
			name, h.counts[len(renderBuckets)])
		fmt.Fprintf(w, "swallow_render_seconds_sum{artifact=%q} %.6f\n", name, h.sum)
		fmt.Fprintf(w, "swallow_render_seconds_count{artifact=%q} %d\n", name, h.count)
	}
}
