// Command swallow-tables regenerates every table and figure of the
// paper from the simulator and prints them, with the published values
// alongside the simulated ones. It is a thin driver over the
// internal/harness artifact registry: -list enumerates the registered
// artifacts (name and description), -only filters them, -json emits a
// machine-readable record per artifact (render, wall time, headline
// metrics), and -par chooses how many goroutines the inner sweeps fan
// out across (-par 1: serial). Sweep points own their simulations, so
// every width renders byte-identical output; only wall clock changes.
//
// -scenario compiles one or more declarative scenario spec files
// (comma-separated JSON, see internal/scenario) and renders them
// instead of the registry: the same compiler, sweep engine and machine
// pool the canonical artifacts run through, so a spec file whose
// content matches a canonical artifact renders byte-identical to it.
//
// Usage:
//
//	swallow-tables [-only regexp] [-list] [-json]
//	               [-par N] [-cpuprofile f] [-memprofile f]
//	               [-trace out.json] [-trace-events N]
//	               [-scenario spec.json[,spec2.json...]]
//
// -trace records a flight-recorder trace of the rendered artifacts:
// every machine checked out during the run captures kernel dispatches,
// turbo batches, thread states, NoC token/credit traffic, power
// samples and lifecycle events. A .json path gets Chrome trace-event
// JSON (open in Perfetto / chrome://tracing); any other extension gets
// the deterministic text timeline. Tracing never changes rendered
// output; a traced run is serial and on a machine pool of its own
// (core.TracedEnv), so the recording is the same every time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"swallow/internal/core"
	_ "swallow/internal/experiments" // registers the artifacts
	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/trace"
)

// jsonRecord is the -json per-artifact output schema.
type jsonRecord struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	WallMS      float64            `json:"wall_ms"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Render      string             `json:"render"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swallow-tables: ")
	only := flag.String("only", "", "regexp of artifact names to regenerate")
	list := flag.Bool("list", false, "list registered artifact names and descriptions, then exit")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON array (render, wall time, metrics)")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "max goroutines per sweep (output is identical at any setting)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	scenarios := flag.String("scenario", "", "comma-separated scenario spec files to compile and render instead of the registry")
	traceOut := flag.String("trace", "", "record a flight-recorder trace of every rendered artifact to this file (.json: Chrome trace-event for Perfetto; otherwise text timeline); the run is serial")
	traceEvents := flag.Int("trace-events", 0, "per-machine trace ring capacity in events (0: default)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *list {
		width := 0
		for _, name := range harness.Names() {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, a := range harness.Artifacts() {
			if a.Description == "" {
				fmt.Println(a.Name)
				continue
			}
			fmt.Printf("%-*s  %s\n", width, a.Name, a.Description)
		}
		return
	}

	cfg := harness.DefaultConfig()
	if *par < 1 {
		log.Fatalf("-par must be >= 1, got %d", *par)
	}
	// The run's one Env, built here and carried by cfg.
	var sess *trace.Session
	if *traceOut != "" {
		sess = trace.NewSession(*traceEvents)
		cfg.Env = core.TracedEnv(sess)
	} else {
		cfg.Env = &core.Env{Pool: core.SharedPool(), Width: *par}
	}

	var filter *regexp.Regexp
	if *only != "" {
		var err error
		filter, err = regexp.Compile(*only)
		if err != nil {
			log.Fatalf("bad -only pattern: %v", err)
		}
	}

	arts := harness.Artifacts()
	if *scenarios != "" {
		arts = nil
		for _, path := range strings.Split(*scenarios, ",") {
			path = strings.TrimSpace(path)
			blob, err := os.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			spec, err := scenario.Parse(blob)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			arts = append(arts, c.Artifact)
		}
	}

	matched := false
	var records []jsonRecord
	for _, a := range arts {
		if filter != nil && !filter.MatchString(a.Name) {
			continue
		}
		matched = true
		start := time.Now()
		res, err := a.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
		wall := time.Since(start)
		t := a.Render(res)
		if *asJSON {
			rec := jsonRecord{
				Name:        a.Name,
				Description: a.Description,
				WallMS:      wall.Seconds() * 1e3,
				Render:      t.String(),
			}
			if a.Metrics != nil {
				rec.Metrics = a.Metrics(res)
			}
			records = append(records, rec)
			continue
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if !matched && filter != nil {
		log.Fatalf("no artifact matches -only %q (try -list)", *only)
	}
	if sess != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if strings.HasSuffix(*traceOut, ".json") {
			err = sess.WriteChrome(f)
		} else {
			err = sess.WriteText(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trace: %d machine recording(s), %d event(s) -> %s",
			len(sess.Recordings()), sess.TotalEvents(), *traceOut)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			log.Fatal(err)
		}
	}
}
