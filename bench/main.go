// Command bench is the repository's benchmark: five workloads that
// drive the system through its layers' public functions, end-to-end
// metrics from an untraced run, and per-layer metrics from a traced
// run of the same inputs. README.md in this directory is the glossary;
// BENCHMARK.json at the repository root is the contract.
//
// Usage, from the repository root:
//
//	go run ./bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench -compare A.json B.json
//	go run ./bench -update-golden
//
// A run on one workload ends with one JSON line: correct, attempted,
// failed and the metrics, end-to-end ones without -trace and per-layer
// ones with it. -workload all runs each workload in a process of its
// own, one after the other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// buildDir is where a run leaves files: trace exports and the serve
// workloads' store directories. It is inside the checkout and ignored
// by git.
const buildDir = ".bench_build"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out files it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Go       string  `json:"go"`
	NProc    int     `json:"nproc"`
	Result   result  `json:"result"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: record spans, run the layer probes, report per-layer metrics")
	out := flag.String("out", "", "append the run to this JSON result set")
	compare := flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	update := flag.Bool("update-golden", false, "regenerate bench/golden from this tree")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *update:
		if err := updateGolden(filepath.Join("bench", "golden")); err != nil {
			fatal("update-golden: %v", err)
		}
	case *name == "all":
		for _, w := range workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(*seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace), "-out", *out}
			if err := runSelf(args); err != nil {
				fatal("%s: %v", w.Name, err)
			}
		}
	default:
		rec, err := runWorkload(runOpts{name: *name, seed: *seed, seconds: *seconds, trace: *trace != 0})
		if err != nil {
			fatal("%s: %v", *name, err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal("%v", err)
			}
		}
		line, _ := json.Marshal(rec.Result)
		fmt.Println(string(line))
		if !rec.Result.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runSelf runs this program again with other arguments and waits for
// it, so that each workload starts from a fresh process: an empty
// machine pool, zeroed counters, a new heap.
func runSelf(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

// runOpts says what to run. The last two fields exist for the smoke
// test, which cannot afford whole rounds and repeated set-ups.
type runOpts struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	// setups, when positive, is the exact number of timed set-ups.
	setups int
	// roundOps, when positive, is how many ops the engine groups into
	// a round, in place of the workload's own round length.
	roundOps int
	// report receives the human-readable report; nil means stdout.
	report io.Writer
}

// shortRounds makes the engine close a round every n ops. The
// workload still draws its ops from its own whole rounds.
type shortRounds struct {
	runner
	n int
}

func (s shortRounds) roundOps() int { return s.n }

// runWorkload runs one workload and prints its report.
func runWorkload(o runOpts) (record, error) {
	var decl *workloadDecl
	for i := range workloads {
		if workloads[i].Name == o.name {
			decl = &workloads[i]
		}
	}
	if decl == nil {
		return record{}, fmt.Errorf("unknown workload (have %v and all)", workloadNames())
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return record{}, err
	}
	w := decl.make(o.seed)
	if o.roundOps > 0 {
		w = shortRounds{w, o.roundOps}
	}
	r := &run{name: o.name, seed: o.seed, seconds: o.seconds, trace: o.trace, minRounds: 2, fixedSetups: o.setups}
	if err := r.execute(w); err != nil {
		return record{}, err
	}
	if o.trace {
		path := filepath.Join(buildDir, "trace-"+o.name+".json")
		if err := writeChrome(path, r.tracers); err != nil {
			return record{}, err
		}
		r.notes = append(r.notes, "spans written to "+path)
	}

	// An untraced run reports the end-to-end metrics, a traced run the
	// per-layer ones; a layer the workload does not use reports 0.
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	res := result{
		Correct:   r.failed == 0 && len(r.incorrect) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(decls)),
	}
	for _, d := range decls {
		res.Metrics[d.Name] = value{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	if o.report == nil {
		o.report = os.Stdout
	}
	r.print(o.report, w, res)
	return record{Workload: o.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Go: runtime.Version(), NProc: runtime.NumCPU(), Result: res}, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// print writes the human-readable report: every metric the run
// measured by name with its unit, and the sample counts behind them.
func (r *run) print(out io.Writer, w runner, res result) {
	fmt.Fprintf(out, "== %s  seed=%d  clients=%d (closed loop)  rounds=%.0f x %d ops  timed=%.2fs  set-ups=%d  trace=%v\n",
		r.name, r.seed, w.clients(), r.metrics["client.rounds"], w.roundOps(), r.wall.Seconds(), len(r.setups), r.trace)
	units := make(map[string]string)
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", name, r.metrics[name], units[name])
	}
	fmt.Fprintf(out, "attempted=%d failed=%d correct=%v  tail: p%g over %.0f samples\n",
		res.Attempted, res.Failed, res.Correct, r.metrics["client.tail_percentile"], r.metrics["client.op_samples"])
	for _, n := range r.notes {
		fmt.Fprintln(out, "  "+n)
	}
}

// appendRecord adds rec to the JSON array in path.
func appendRecord(path string, rec record) error {
	var set []record
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	blob, err := json.MarshalIndent(append(set, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
