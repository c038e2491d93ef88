package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/service/cache"
	"swallow/internal/service/cluster"
	"swallow/internal/service/store"
)

// request is one generated op of a serve workload.
type request struct {
	class uint8
	// key indexes the working set (serve-warm); -1 on serve-cold, where
	// every request is its own key.
	key int32
	// A request names an artifact and its iters, or carries a scenario
	// spec; job requests submit either asynchronously.
	artifact string
	iters    int
	spec     []byte
}

// job reports whether the request goes through POST /jobs.
func (q request) job() bool { return q.class == classJob }

// local is the request as the in-process backend takes it, for
// re-rendering a sampled answer.
func (q request) local() (cluster.Request, error) {
	if q.spec == nil {
		return cluster.Request{Artifact: q.artifact, Config: harness.Config{Iters: q.iters}}, nil
	}
	spec, err := scenario.Parse(q.spec)
	return cluster.Request{Scenario: &spec, Config: harness.DefaultConfig()}, err
}

// The generated specs run on a 2x2-slice grid. Each family has one
// parameter that makes the spec unique (the k-th spec of a family is
// like no other) and moves its cost by a few percent at most.

// pipelineSpec is a five-stage pipeline swept over two core clocks.
func pipelineSpec(k int) []byte {
	return []byte(fmt.Sprintf(`{"name":"bench-pipeline","grid":{"slices_x":2,"slices_y":2},`+
		`"workload":{"structure":"pipeline","items":%d,"placement":{"policy":"scatter","count":5}},`+
		`"sweep":[{"param":"freq_mhz","floats":[%d,500]}]}`, 100+k%16, 200+(k/16)%256))
}

// trafficSpec is two token streams, one across boards, swept over two
// packet payloads.
func trafficSpec(k int) []byte {
	return []byte(fmt.Sprintf(`{"name":"bench-traffic","grid":{"slices_x":2,"slices_y":2},`+
		`"workload":{"structure":"traffic","flows":[`+
		`{"src":{"x":0,"y":0,"layer":"V"},"dst":{"x":3,"y":7,"layer":"H"},"tokens":%d},`+
		`{"src":{"x":1,"y":1,"layer":"V"},"dst":{"x":2,"y":5,"layer":"V"},"tokens":1500}]},`+
		`"sweep":[{"param":"payload","ints":[%d,96]}]}`, 1500+k%64, 8+(k/64)%64))
}

// One serve-cold round, by kind. Sorted by cost the 40 ops fall into a
// cheap group (pipelines), a broad middle (traffic specs, eq2, jobs),
// fig4, five fig2 renders and two fig3 renders; the median op sits
// inside the middle group and the 90th percentile is the middle one of
// the fig2 renders, so neither lands on a boundary between kinds.
const (
	coldPipelines = 12
	coldTraffic   = 12
	coldEq2       = 3
	coldFig4      = 3
	coldJobs      = 3
	coldFig2      = 5
	coldFig3      = 2
	coldOps       = coldPipelines + coldTraffic + coldEq2 + coldFig4 + coldJobs + coldFig2 + coldFig3
)

// Iteration counts start here and rise by one per request, so every
// request is a new key while the cost of a kind stays flat.
const (
	itersCheap = 8000
	itersJob   = 12000
	itersFig2  = 4000
	itersFig3  = 8000
)

// warmupOff is the parameter offset of serve-cold's warm-up requests; the
// seed's offset stays below 1<<10 and a run adds a few hundred, so the
// two never meet.
const warmupOff = 3000

// coldRound generates round r of serve-cold. The n-th request of a
// kind takes parameter off+n, so no two requests of a process share a
// key. An iteration count is what an artifact's cost is proportional
// to, so there the seed's offset is folded into 0-63. The kinds come in the same evenly interleaved order in every
// round and on every seed: which ops overlap on the two clients sets
// how long the expensive ones take, and a shuffled order moved the
// 90th percentile by 10 % from seed to seed.
func coldRound(off, r int) []request {
	artifact := func(class uint8, name string, base int) func(n int) request {
		return func(n int) request { return request{class: class, artifact: name, iters: base + off%64 + n} }
	}
	kinds := []struct {
		n  int
		mk func(n int) request
	}{
		{coldPipelines, func(n int) request { return request{class: classScenario, spec: pipelineSpec(off + n)} }},
		{coldTraffic, func(n int) request { return request{class: classScenario, spec: trafficSpec(off + n)} }},
		{coldEq2, artifact(classCheap, "eq2", itersCheap)},
		{coldFig4, artifact(classCheap, "fig4", itersCheap)},
		{coldJobs, artifact(classJob, "eq2", itersJob)},
		{coldFig2, artifact(classExpensive, "fig2", itersFig2)},
		{coldFig3, artifact(classExpensive, "fig3", itersFig3)},
	}
	// Smooth weighted round-robin: every step each kind gains its
	// count, the richest kind is taken and pays the round's length.
	credit, used := make([]int, len(kinds)), make([]int, len(kinds))
	out := make([]request, 0, coldOps)
	for len(out) < coldOps {
		best := 0
		for i, kind := range kinds {
			credit[i] += kind.n
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= coldOps
		q := kinds[best].mk(r*kinds[best].n + used[best])
		q.key = -1
		used[best]++
		out = append(out, q)
	}
	return out
}

// The serve-warm working set and how it is replayed. A worker's memory
// cache holds warmCacheEntries results, so the two workers together
// hold half the working set. A share warmHotShare of the requests goes
// to the warmHot hottest keys: that keeps well over half the answers
// in memory, so the median op is a memory hit and the 90th percentile
// a disk hit, each well inside its tier.
const (
	warmKeys         = 64
	warmCacheEntries = 16
	warmHot          = 16
	warmHotShare     = 0.6
	warmOps          = 4000
)

// warmSet is the working set: 40 scenario specs and 24 artifact GETs,
// all cheap to render, since set-up renders each of them once.
func warmSet(off int) []request {
	var out []request
	for j := 0; j < 20; j++ {
		out = append(out, request{class: classScenario, spec: pipelineSpec(off + j)})
		out = append(out, request{class: classScenario, spec: trafficSpec(off + j)})
	}
	for j := 0; j < 12; j++ {
		out = append(out, request{class: classCheap, artifact: "eq2", iters: 4000 + off%64 + j})
		out = append(out, request{class: classCheap, artifact: "fig4", iters: 2000 + off%64 + j})
	}
	for i := range out {
		out[i].key = int32(i)
	}
	return out
}

// reply is what a client learned from one answer.
type reply struct {
	ok       bool
	hash     [sha256.Size]byte
	tier     uint8
	worker   uint8
	renderUs int64
	queueUs  int64
}

// seen is one serve-cold answer kept for the re-render check.
type seen struct {
	req  request
	hash [sha256.Size]byte
}

// serve drives the in-process fleet over loopback.
type serve struct {
	warm bool
	n    int // clients
	per  int
	off  int
	seed int64

	fleet  *fleet
	client *http.Client
	plans  planner[request]

	// keys is the serve-warm working set and first each key's first
	// answer, written by set-up and only read afterwards.
	keys  []request
	first [][sha256.Size]byte
	// answers holds every serve-cold answer, per client.
	answers [][]seen
	// jobWait and jobRun are the queue's own timings of finished jobs,
	// per client.
	jobWait, jobRun [][]float64

	before map[string]float64 // worker counters when set-up ended
}

// newServe builds serve-cold or serve-warm. Two clients share the
// host's processors with the router and both workers, as a load
// driver on the same box would; on one processor there is one client.
func newServe(seed int64, warm bool) *serve {
	w := &serve{warm: warm, seed: seed, n: min(2, runtime.NumCPU()), per: coldOps}
	// The seed shifts every parameter band, and draws serve-warm's
	// requests.
	w.off = rand.New(rand.NewSource(seed)).Intn(1 << 10)
	w.plans = planner[request]{seed: seed, gen: func(r int, _ *rand.Rand) []request { return coldRound(w.off, r) }}
	if warm {
		w.per = warmOps
		w.keys = warmSet(w.off)
		w.plans.gen = func(_ int, rng *rand.Rand) []request {
			out := make([]request, warmOps)
			for i := range out {
				if rng.Float64() < warmHotShare {
					out[i] = w.keys[rng.Intn(warmHot)]
				} else {
					out[i] = w.keys[warmHot+rng.Intn(warmKeys-warmHot)]
				}
			}
			return out
		}
	}
	w.answers = make([][]seen, w.n)
	w.jobWait = make([][]float64, w.n)
	w.jobRun = make([][]float64, w.n)
	return w
}

func (w *serve) clients() int  { return w.n }
func (w *serve) roundOps() int { return w.per }

func (w *serve) setup() error {
	cacheEntries := 0
	if w.warm {
		cacheEntries = warmCacheEntries
	}
	var err error
	if w.fleet, err = startFleet(cacheEntries); err != nil {
		return err
	}
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2 * w.n, MaxIdleConnsPerHost: 2 * w.n},
		Timeout:   2 * time.Minute,
	}
	if w.warm {
		// Populate: every key rendered once (a MISS that writes the
		// store), then the hot keys once more so the timed phase starts
		// with them in memory.
		w.first = make([][sha256.Size]byte, len(w.keys))
		for i, q := range w.keys {
			rep := w.fetch(opCtx{op: -1}, q)
			if !rep.ok || rep.tier != tierMiss {
				return fmt.Errorf("populating key %d: ok=%v tier=%s", i, rep.ok, tierNames[rep.tier])
			}
			w.first[i] = rep.hash
		}
		for _, q := range w.keys[:warmHot] {
			if rep := w.fetch(opCtx{op: -1}, q); !rep.ok {
				return fmt.Errorf("re-reading key %d failed", q.key)
			}
		}
	} else {
		// One request of each kind, outside the bands the timed phase
		// uses: builds the pooled machines and opens the connections.
		for _, q := range []request{
			{class: classScenario, spec: pipelineSpec(warmupOff)},
			{class: classScenario, spec: trafficSpec(warmupOff)},
			{class: classCheap, artifact: "eq2", iters: itersCheap + warmupOff},
			{class: classCheap, artifact: "fig4", iters: itersCheap + warmupOff},
			{class: classJob, artifact: "eq2", iters: itersJob + warmupOff},
			{class: classExpensive, artifact: "fig2", iters: itersFig2 + warmupOff},
			{class: classExpensive, artifact: "fig3", iters: itersFig3 + warmupOff},
		} {
			if rep := w.fetch(opCtx{op: -1}, q); !rep.ok {
				return fmt.Errorf("warm-up request failed: %+v", q)
			}
		}
	}
	w.before, err = w.fleet.counters(w.client)
	return err
}

func (w *serve) teardown() {
	if w.fleet == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.fleet.stop()
	w.fleet = nil
}

func (w *serve) do(c opCtx) sample {
	q := w.plans.get(c.op / w.per)[c.op%w.per]
	rep := w.fetch(c, q)
	s := sample{ok: rep.ok, class: q.class, key: q.key, tier: rep.tier, worker: rep.worker,
		renderUs: rep.renderUs, queueUs: rep.queueUs}
	if !rep.ok {
		return s
	}
	if w.warm {
		// Every repeat of a key equals its first answer, and none of
		// them simulates.
		s.ok = rep.hash == w.first[q.key] && rep.tier != tierMiss
	} else {
		s.ok = rep.tier == tierMiss
		w.answers[c.client] = append(w.answers[c.client], seen{q, rep.hash})
	}
	return s
}

// fetch sends one request through the router and checks the answer:
// status 200, a body, and an ETag equal to the body's sha256.
func (w *serve) fetch(c opCtx, q request) reply {
	c.tr.begin("client.request", c.op)
	defer c.tr.end()
	if q.job() {
		return w.fetchJob(c, q)
	}
	method, path, body := http.MethodGet, "/artifacts/"+q.artifact+"?iters="+strconv.Itoa(q.iters), io.Reader(nil)
	if q.spec != nil {
		method, path, body = http.MethodPost, "/scenarios", bytes.NewReader(q.spec)
	}
	req, err := http.NewRequest(method, w.fleet.front.url+path, body)
	if err != nil {
		return reply{}
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{}
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(text) == 0 {
		return reply{}
	}
	rep := reply{hash: sha256.Sum256(text)}
	rep.ok = resp.Header.Get("ETag") == `"`+hex.EncodeToString(rep.hash[:])+`"`
	for t, name := range tierNames {
		if t != tierNone && resp.Header.Get("X-Cache") == name {
			rep.tier = uint8(t)
		}
	}
	for i, n := range w.fleet.workers {
		if resp.Header.Get("X-Worker") == n.name {
			rep.worker = uint8(i + 1)
		}
	}
	rep.renderUs, _ = strconv.ParseInt(resp.Header.Get("X-Render-Micros"), 10, 64)
	rep.queueUs, _ = strconv.ParseInt(resp.Header.Get("X-Queue-Micros"), 10, 64)
	c.tr.child("api.queue", time.Duration(rep.queueUs)*time.Microsecond)
	c.tr.child("api.render", time.Duration(rep.renderUs)*time.Microsecond)
	return rep
}

// jobPoll is the pause between two polls of a job.
const jobPoll = 2 * time.Millisecond

// fetchJob submits an async job and polls it to completion.
func (w *serve) fetchJob(c opCtx, q request) reply {
	submit, _ := json.Marshal(map[string]any{"artifact": q.artifact, "config": harness.Config{Iters: q.iters}})
	resp, err := w.client.Post(w.fleet.front.url+"/jobs", "application/json", bytes.NewReader(submit))
	if err != nil {
		return reply{}
	}
	var view struct {
		ID              string `json:"id"`
		Status          string `json:"status"`
		ETag            string `json:"etag"`
		Result          string `json:"result"`
		QueueWaitMicros int64  `json:"queue_wait_micros"`
		RunMicros       int64  `json:"run_micros"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return reply{}
	}
	for deadline := time.Now().Add(time.Minute); view.Status != "done"; {
		if view.Status == "failed" || time.Now().After(deadline) {
			return reply{}
		}
		time.Sleep(jobPoll)
		resp, err := w.client.Get(w.fleet.front.url + "/jobs/" + view.ID)
		if err != nil {
			return reply{}
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return reply{}
		}
	}
	rep := reply{hash: sha256.Sum256([]byte(view.Result)), tier: tierMiss,
		renderUs: view.RunMicros, queueUs: view.QueueWaitMicros}
	rep.ok = view.Result != "" && view.ETag == `"`+hex.EncodeToString(rep.hash[:])+`"`
	if c.op >= 0 {
		w.jobWait[c.client] = append(w.jobWait[c.client], float64(view.QueueWaitMicros))
		w.jobRun[c.client] = append(w.jobRun[c.client], float64(view.RunMicros))
	}
	c.tr.child("api.queue", time.Duration(rep.queueUs)*time.Microsecond)
	c.tr.child("api.render", time.Duration(rep.renderUs)*time.Microsecond)
	return rep
}

// verifyBudget bounds the time spent re-rendering sampled answers.
const verifyBudget = 2 * time.Second

// verify re-renders one answer in twenty in process, through the same
// backend a worker uses, and compares bytes by hash. It stops early
// when the budget is spent; the count it managed is reported.
func (w *serve) verify(r *run) {
	var sampled []seen
	if w.warm {
		for i, q := range w.keys {
			sampled = append(sampled, seen{q, w.first[i]})
		}
	} else {
		for _, as := range w.answers {
			sampled = append(sampled, as...)
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(sampled), func(i, j int) { sampled[i], sampled[j] = sampled[j], sampled[i] })
	sampled = sampled[:(len(sampled)+19)/20]
	local, start, checked := cluster.NewLocal(), time.Now(), 0
	for _, a := range sampled {
		if time.Since(start) > verifyBudget {
			break
		}
		checked++
		r.attempted++
		req, err := a.req.local()
		if err != nil {
			r.fail("re-render: %v", err)
			continue
		}
		res, err := local.Render(context.Background(), req)
		if err != nil || sha256.Sum256(res.Body) != a.hash {
			r.fail("re-render of %s%s differs from the served answer (err=%v)", a.req.artifact, a.req.spec, err)
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("re-rendered %d of %d sampled answers in process, all equal unless reported", checked, len(sampled)))
}

func (w *serve) finish(r *run) {
	w.verify(r)

	var byTier [numTiers][]float64
	var render, queue, overhead []float64
	var perWorker [fleetWorkers + 1]int
	// modal[key][worker] counts who answered each working-set key.
	modal := make(map[int32]*[fleetWorkers + 1]int)
	for _, s := range r.samples {
		byTier[s.tier] = append(byTier[s.tier], s.ms())
		perWorker[s.worker]++
		if s.class != classJob {
			queue = append(queue, float64(s.queueUs))
			overhead = append(overhead, float64(s.end-s.start)/1e3-float64(s.renderUs)-float64(s.queueUs))
			if s.renderUs > 0 {
				render = append(render, float64(s.renderUs))
			}
		}
		if s.key >= 0 {
			if modal[s.key] == nil {
				modal[s.key] = new([fleetWorkers + 1]int)
			}
			modal[s.key][s.worker]++
		}
	}
	ops := float64(len(r.samples))
	r.set("api.miss_ms_p50", median(byTier[tierMiss]))
	r.set("api.hit_ms_p50", median(byTier[tierHit]))
	r.set("api.disk_hit_ms_p50", median(byTier[tierDisk]))
	r.set("api.tier_share.hit", float64(len(byTier[tierHit]))/ops)
	r.set("api.tier_share.disk", float64(len(byTier[tierDisk]))/ops)
	r.set("api.tier_share.peer", float64(len(byTier[tierPeer]))/ops)
	r.set("api.tier_share.miss", float64(len(byTier[tierMiss]))/ops)
	r.set("api.render_us_p50", median(render))
	r.set("api.overhead_us_p50", median(queue))
	r.set("client.overhead_us_p50", median(overhead))
	r.set("cluster.worker_max_share", float64(max(perWorker[1], perWorker[2]))/ops)
	if len(modal) > 0 {
		// A key's repeats should all reach the worker that owns it.
		same := 0
		for _, counts := range modal {
			best := 0
			for _, n := range counts {
				best = max(best, n)
			}
			same += best
		}
		r.set("cluster.affinity_ratio", float64(same)/ops)
	}
	var waits, runs []float64
	for c := range w.jobWait {
		waits = append(waits, w.jobWait[c]...)
		runs = append(runs, w.jobRun[c]...)
	}
	r.set("queue.wait_us_p50", median(waits))
	r.set("queue.run_us_p50", median(runs))

	after, err := w.fleet.counters(w.client)
	if err != nil {
		r.wrong("reading worker metrics: %v", err)
		return
	}
	delta := func(name string) float64 { return after[name] - w.before[name] }
	hits, misses := delta("swallow_cache_hits_total"), delta("swallow_cache_misses_total")
	if hits+misses > 0 {
		r.set("cache.hit_ratio", hits/(hits+misses))
	}
	r.set("cache.evictions", delta("swallow_cache_evictions_total"))
	r.set("cache.shared_fills", delta("swallow_cache_shared_fills_total"))
	r.set("store.hits", delta("swallow_store_hits_total"))
	r.set("store.writes", delta("swallow_store_writes_total"))
	r.set("store.bytes_written", delta("swallow_store_bytes_total"))
	r.set("store.corrupt", delta("swallow_store_corrupt_total"))
	r.set("queue.rejected", delta("swallow_requests_rejected_total"))
	if front, err := scrape(w.client, w.fleet.front.url); err == nil {
		r.set("cluster.failovers", front["swallow_router_failovers_total"])
	}
	r.notes = append(r.notes, fmt.Sprintf("answers by tier: %d HIT, %d HIT-DISK, %d HIT-PEER, %d MISS",
		len(byTier[tierHit]), len(byTier[tierDisk]), len(byTier[tierPeer]), len(byTier[tierMiss])))
	if !r.trace {
		return
	}
	w.probes(r.set)
}

// probes times the serving layers one call at a time, on this
// workload's own specs and bodies.
func (w *serve) probes(set setter) {
	specs := [][]byte{pipelineSpec(w.off), trafficSpec(w.off)}
	var parses, compiles []time.Duration
	var bodies [][]byte
	local := cluster.NewLocal()
	for i := 0; i < 50; i++ {
		var spec scenario.Spec
		parses = append(parses, timeN(1, func() { spec, _ = scenario.Parse(specs[i%2]) })...)
		compiles = append(compiles, timeN(1, func() { _, _ = scenario.Compile(spec) })...)
		if i < 2 {
			if res, err := local.Render(context.Background(), cluster.Request{Scenario: &spec, Config: harness.DefaultConfig()}); err == nil {
				bodies = append(bodies, res.Body)
			}
		}
	}
	set("scenario.parse_us_p50", medianDur(parses, time.Microsecond))
	set("scenario.compile_us_p50", medianDur(compiles, time.Microsecond))
	if len(bodies) == 0 {
		return
	}

	// The memory tier: a lookup of a present key.
	mem := cache.New(64<<20, 256)
	key := cache.Key("probe", harness.DefaultConfig())
	fill := func() ([]byte, error) { return bodies[0], nil }
	_, _, _ = mem.GetOrFill(key, fill)
	set("cache.hit_ns_p50", medianDur(timeN(1000, func() { _, _, _ = mem.GetOrFill(key, fill) }), time.Nanosecond))

	// The disk tier: writes and reads of rendered bodies in a scratch
	// store beside the fleet's own.
	if st, err := store.Open(store.Options{Dir: filepath.Join(w.fleet.dir, "probe"), Version: "probe"}); err == nil {
		keys := make([]string, 100)
		for i := range keys {
			keys[i] = cache.Key("probe", harness.Config{Iters: i + 1})
		}
		i := 0
		set("store.put_us_p50", medianDur(timeN(len(keys), func() {
			_ = st.Put(keys[i], bodies[i%len(bodies)], store.Meta{Artifact: "probe"})
			i++
		}), time.Microsecond))
		i = 0
		set("store.get_us_p50", medianDur(timeN(len(keys), func() {
			_, _ = st.Get(keys[i])
			i++
		}), time.Microsecond))
	}

	ring := cluster.NewRing(0)
	for _, n := range w.fleet.workers {
		ring.Add(n.name)
	}
	set("cluster.ring_lookup_ns_p50", medianDur(timeN(1000, func() { ring.Sequence(key) }), time.Nanosecond))

	// The router hop: the same memory hits asked through the router and
	// straight from the worker that owns them.
	var routed, direct []time.Duration
	for _, q := range w.keys {
		if q.spec != nil || len(routed) >= 120 {
			continue
		}
		path := "/artifacts/" + q.artifact + "?iters=" + strconv.Itoa(q.iters)
		owner := ""
		get := func(base string) {
			resp, err := w.client.Get(base + path)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if name := resp.Header.Get("X-Worker"); name != "" {
				owner = "http://" + name
			}
		}
		get(w.fleet.front.url)
		if owner == "" {
			continue
		}
		get(owner)
		for i := 0; i < 30; i++ {
			routed = append(routed, timeN(1, func() { get(w.fleet.front.url) })...)
			direct = append(direct, timeN(1, func() { get(owner) })...)
		}
	}
	if len(routed) > 0 {
		set("cluster.router_hop_us_p50", medianDur(routed, time.Microsecond)-medianDur(direct, time.Microsecond))
	}
	probeCore(set, 2, 2)
}
