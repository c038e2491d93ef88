// Package swallow is a full-system, energy-transparent simulator of the
// Swallow many-core embedded platform (Hollis & Kerrison, DATE 2016),
// built from scratch in pure-stdlib Go.
//
// # Layer map
//
// Everything stacks on the discrete-event kernel and flows upward:
//
//	internal/sim          event kernel (ladder queue, reusable Timers), clocks
//	internal/topo         unwoven-lattice topology and routing
//	internal/energy       calibrated per-instruction and per-bit energy models
//	internal/xs1          XS1-L ISA, pipeline and hardware threads
//	internal/noc          five-wire token links, wormhole switches, channel ends
//	internal/power        shunt/amplifier/ADC measurement subsystem
//	internal/core         machine assembly: cores + network + power tree
//	internal/nos          network boot loader
//	internal/bridge       Ethernet bridge module
//	internal/trace        flight recorder: typed event rings + exporters
//	internal/workload     host-driven flows and benchmark programs
//	internal/experiments  regenerates every table and figure of the paper
//	internal/harness      artifact registry + parallel sweep engine
//	internal/scenario     declarative scenario specs compiled to artifacts
//	internal/service      serving layer: result cache, job queue, HTTP API
//	internal/service/store    disk-backed artifact store: warm restarts,
//	                      named scenario pins
//	internal/service/cluster  request resolver, consistent hash ring,
//	                      cache-affinity router over worker fleets
//
// Each experiment registers once with the harness registry (a name, a
// description, a Run, a Render); bench/ and the cmd/ tools are thin
// loops over harness.Artifacts(). Sweep inner loops run through
// harness/sweep.Map, which fans independent points (each with its own
// kernel and machine) across goroutines without changing a byte of
// output. How a run executes — machine pool, sweep width, reference
// paths, flight recorder — is one value, core.Env, carried by
// harness.Config; nil is production and nothing is process state.
//
// # Scenarios
//
// internal/scenario turns the experiment surface from a closed set
// into an open one: a JSON Spec declares a grid, a workload structure
// (traffic flows read as goodput or per-class link energy, or the
// Ethernet bridge's stream; ping probes; pipelines, rings, farms and
// barrier groups; or a load read as instruction rate, core power, rail
// power, the per-node budget, an nOS network-boot cost or the ADC
// board's sampling limits), a placement (explicit nodes or a topo
// policy), an operating point and one or more sweep axes, and Compile
// lowers it into a harness.Artifact running one pooled machine per
// point under sweep.Map. Specs have a canonical form and content hash;
// Table I, Fig. 2-4, Eq. 2, the latency, goodput, ec, placement and
// ablation artifacts and the bridge, boot and ADC instruments are
// compiled specs with no other implementation, their renders held to
// the hashes in bench/golden/tables.json; fig1 is the one artifact
// that runs a machine from Go. swallow-tables -scenario renders spec
// files locally; POST /scenarios serves submissions with result
// caching under the spec hash.
//
// # Serving
//
// internal/service exposes the registry over HTTP (cmd/swallow-serve)
// as one pipeline: resolve → memory → disk → run.
// service/cluster.Resolver turns a request in any spelling (a name, a
// spec, a job body, plus its iters override) into the artifact to run
// and the one key — the canonical (artifact, projected Config) hash —
// that every tier below, and the router's hash ring, files it under.
// service/cache is the memory tier, an LRU with singleflight
// deduplication; service/store the disk tier (swallow-serve
// -store-dir): content-addressed, CRC-guarded, size-bounded, atomic
// write-through, invalidated wholesale when the registry version
// changes, so restarts answer their old keyspace as X-Cache HIT-DISK;
// only a key neither tier holds runs the artifact, in process.
// Determinism makes every tier byte-identical to a cold run.
// service/queue runs the same render asynchronously: a bounded job
// queue with worker pool, per-class round-robin fairness, 429
// backpressure and graceful drain. The store also persists named
// scenarios — PUT /scenarios/{name} pins a human name to a spec hash
// with version history, GET /scenarios/{name} re-renders it by name.
// cmd/swallow-load is the matching open/closed-loop load generator
// reporting throughput and p50/p95/p99 latency, able to mix scenario
// POSTs into the load and split results per responding worker.
//
// service/cluster also scales the service horizontally:
// cmd/swallow-router fronts N swallow-serve workers, resolves each
// request with the same Resolver and routes it by the key over a
// consistent hash ring (replicated virtual nodes, sticky membership),
// so every worker's cache and machine pool specialize on a slice of
// the keyspace. Determinism makes failover safe — any worker renders
// byte-identical bodies — and workers drain gracefully: healthz flips
// to 503 draining, the router re-routes, then the listener closes; the
// drained worker's keys render once on the ring successor.
//
// # Machine lifecycle
//
// Machines split configuration into structure and operating point.
// Structure — grid shape and internal link count — is fixed at
// core.New; buffer depths, channel ends, latencies and the routing
// policy are constants of internal/noc. The operating
// point — core clock and supply voltage, link timings — is movable with
// Machine.Retune. A machine rewinds one way: Machine.Restore puts back a
// Machine.Snapshot, byte-identical to a fresh build re-running the
// prefix the snapshot followed. New snapshots the just-built machine and
// Machine.Reset restores it, at the operating point last given to New or
// Retune, so core.Pool recycles machines keyed on structural shape:
// frequency/DVFS sweeps, the experiment inner loops and the HTTP service
// all check machines out, run, and return them instead of rebuilding per
// point (an Env with no Pool forces fresh builds; output is
// byte-identical either way).
//
// # Scheduling
//
// The kernel schedules through one API over one deterministic (time,
// seq) FIFO queue: sim.Timer, allocated once with the callback bound at
// construction, then armed, re-armed and disarmed forever without
// allocating — instruction issue, link pumps, channel-end wakes, ADC
// ticks; components embedding their timers bind the callback through a
// preallocated sim.Waker instead of a closure.
// Kernel.Restore drains the queue and re-arms a snapshot's
// registrations in place, every Timer staying usable, which is what
// makes the rewind above possible. See internal/sim and README.md for
// the Timer contract.
//
// # Execution fast path
//
// internal/xs1 removes the steady-state per-instruction cost in the six
// statements turbo.go lists. A window is (core state, at, limit) → folded
// log (window.go): cores share no memory, so a core on a compute streak
// runs its own next slots on a local clock, up to the next foreign event
// or the deadline, and logs them in strided runs (n slots a period apart,
// a gap, repeated). While every thread is ready and due at its turn the
// slots are the XS1's fixed rotation (Eq. 2): no scheduler scan, fetches
// from a predecode cache validated by the per-4KiB-page generation stamps
// that drive snapshot dirty tracking, counters folded in at the
// rotation's end; a lone core (fig4, eq2) steps the kernel once per
// rotation (sim.Kernel.StepN). The group owns order (turbo.go): all cores
// on a kernel co-batch in global (time, sequence) order until the next
// foreign event, communication instruction, trap, deadline or batch cap,
// and replay the logged timing when they reach it. A round is a
// rotation: where every queued core holds the same block the queue only
// rotates, and whole blocks retire at once. A fan-out is who computes
// windows: the simulation goroutine and a process-wide pool of parked
// helpers (GOMAXPROCS - 1 of them) claim them one at a time, and the
// simulation goroutine joins before it replays a slot — no rollback, no
// speculation, the same bytes at every GOMAXPROCS. A count is a slot
// nobody can observe (stall.go): a blocked thread's doomed retry and idle
// probe are accounted for without a firing. A twin adopts a window it
// would have computed (twin.go): cores in one state, asked for windows
// from one time, share one. xs1.TurboStats counts all of it. The
// contract: turbo is step-by-step — batching never changes architectural
// state at any foreign-event boundary, and a core's private state leads
// the kernel clock only inside one RunUntil, never past the next foreign
// event or the deadline, never while an outside event could wake one of
// its threads, never with a recorder attached; anything reaching into a
// core that still holds unreplayed slots panics. An exact Env (a test
// oracle; no flag) falls back to one instruction per kernel event,
// byte-identical output either way.
//
// The communication path — kernel events and tokens rather than
// instructions — follows the same rules. Nothing on it allocates in
// steady state (wake callbacks, FIFOs and waiter lists are preallocated,
// each link caches its wire time per token), and absorbing a sibling's
// issue firing is O(1): the kernel reports the queue head's Waker and
// the group recognises its own issue timer by type
// (core.TestCommRunZeroAllocs). Machine.Run names the blocked threads,
// their channel ends and what they are short of when the kernel runs dry.
//
// Counted stalls (internal/xs1/stall.go): when a channel-end wake cannot
// satisfy its thread — a word wants four tokens, every token wakes — the
// retry it would arm and the idle probe after that are accounted for by
// the wake itself (sim.Kernel.Count), as is the probe after an
// instruction that blocks. Only for a core with nothing else to run,
// whose blocked instruction still lacks what it needs, on a channel end
// nothing can reach before the probe's slot (noc.ChanEnd.QuietUntil),
// inside an untraced RunUntil whose deadline covers it; anything else
// fires as before, so Now, Seq and Fired match the exact pipeline's.
//
// # Observability
//
// internal/trace is the flight recorder: a preallocated per-machine
// ring of fixed-size typed events (kernel dispatches, turbo batches,
// thread states, NoC token and credit traffic, power samples, energy
// accruals, lifecycle marks) that attaches to a kernel only inside
// Env.Checkout, under an Env that carries a trace.Session — any number
// at once, each on a machine pool of its own. With no recorder
// attached every hook is one pointer load and one branch, pinned at
// zero allocations; with one attached the same run renders
// byte-identical output (TestTracingNeutralGolden). Exporters write
// Chrome trace-event JSON for Perfetto (swallow-tables -trace out.json,
// GET /artifacts/{name}?trace=1) or a deterministic text timeline for
// goldens. The service side adds X-Request-ID propagation, structured
// JSON access logs, render-latency histograms in /metrics, and
// optional net/http/pprof handlers (-pprof).
package swallow
