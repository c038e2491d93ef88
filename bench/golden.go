package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The committed reference outputs. golden/sim.seed1.json holds, for
// seed 1, the simulated-statistics digest of every op of the first
// round of sim-compute and sim-comm; golden/tables.json the sha256 of
// every registry table as swallow-tables prints it. paper_refs.json
// holds the published values the fidelity error is taken against.
//
//go:embed golden/sim.seed1.json golden/tables.json paper_refs.json
var committed embed.FS

// goldenSeed is the seed the committed digests were taken on.
const goldenSeed = 1

func readCommitted(name string, into any) {
	blob, err := committed.ReadFile(name)
	if err == nil {
		err = json.Unmarshal(blob, into)
	}
	if err != nil {
		panic(fmt.Sprintf("bench: committed file %s: %v", name, err))
	}
}

// goldenSim returns the committed digests of one sim workload.
func goldenSim(workload string) []string {
	var all map[string][]string
	readCommitted("golden/sim.seed1.json", &all)
	return all[workload]
}

// goldenTables returns the committed table hashes by artifact name.
func goldenTables() map[string]string {
	var m map[string]string
	readCommitted("golden/tables.json", &m)
	return m
}

// checkGolden compares a run's first-round digests with the committed
// ones. Only the golden seed has committed digests.
func checkGolden(r *run, want, got []string) {
	if r.seed != goldenSeed {
		return
	}
	// A run completes its first round, so it has every digest; only the
	// smoke test, which cuts rounds short, compares a prefix.
	if len(got) == 0 || len(got) > len(want) {
		r.wrong("%s: %d first-round digests, golden has %d (run `go run ./bench -update-golden` if the model changed)", r.name, len(got), len(want))
		return
	}
	for i := range got {
		if want[i] != got[i] {
			r.wrong("%s: op %d simulated statistics differ from golden:\n  golden %s\n  got    %s", r.name, i, want[i], got[i])
			return
		}
	}
}

// updateGolden regenerates the committed digests and hashes in dir.
// It is for a change that means to alter the model; a change that
// means only to speed the simulator up must leave them alone.
func updateGolden(dir string) error {
	sims := make(map[string][]string)
	for _, w := range []*simWorkload{newSimCompute(goldenSeed), newSimComm(goldenSeed)} {
		if err := w.setup(); err != nil {
			return err
		}
		for i := 0; i < w.per; i++ {
			if s := w.do(opCtx{op: i}); !s.ok {
				return fmt.Errorf("%s: op %d failed", w.name, i)
			}
		}
		w.teardown()
		sims[w.name] = w.digests
	}
	tables, err := tableHashes()
	if err != nil {
		return err
	}
	for name, v := range map[string]any{"sim.seed1.json": sims, "tables.json": tables} {
		blob, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
