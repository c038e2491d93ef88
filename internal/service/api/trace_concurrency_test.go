package api_test

import (
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/report"
	"swallow/internal/service/api"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
)

func init() {
	// The one test artifact that simulates: three sweep points, each a
	// small busy loop on a checked-out slice, so a traced request has
	// machines to record — one built, then parked and reused twice.
	harness.Register(harness.Spec[[]uint64]{
		Name:        "sim",
		Description: "test artifact running a small sweep on real machines",
		UsesIters:   true,
		Run: func(cfg harness.Config) ([]uint64, error) {
			return sweep.Map(cfg.Env.SweepWidth(), []int{1, 2, 3}, func(_ int, threads int) (uint64, error) {
				m, release, err := cfg.Env.Checkout(1, 1, core.Options{})
				if err != nil {
					return 0, err
				}
				defer release()
				if err := m.Load(topo.MakeNodeID(0, 0, topo.LayerV), workload.BusyLoop(threads, cfg.Iters)); err != nil {
					return 0, err
				}
				if err := m.Run(sim.Millisecond); err != nil {
					return 0, err
				}
				return m.TotalInstrCount(), nil
			})
		},
		Render: func(instrs []uint64) *report.Table {
			t := report.NewTable("sim", "threads", "instructions")
			for i, n := range instrs {
				t.AddRow(fmt.Sprint(i+1), fmt.Sprint(n))
			}
			return t
		},
	})
}

// fetch is get for goroutines other than the test's own: it returns
// the error rather than failing the test.
func fetch(url string) (*http.Response, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, string(body), err
}

// traceParts splits a ?trace=1 response into its table and trace.
func traceParts(resp *http.Response, body string) (table, trace string, err error) {
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		return "", "", err
	}
	mr := multipart.NewReader(strings.NewReader(body), params["boundary"])
	parts := map[string]string{}
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts["table"], parts["trace"], nil
		}
		if err != nil {
			return "", "", err
		}
		blob, err := io.ReadAll(p)
		if err != nil {
			return "", "", err
		}
		parts[p.FormName()] = string(blob)
	}
}

// TestTraceRunsBesidePlainRender holds a plain render open inside its
// Run until a ?trace=1 request for another artifact has come back.
// Were traced runs to exclude plain ones process-wide, as a read-write
// lock around every render once did, the two would deadlock.
func TestTraceRunsBesidePlainRender(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	plain := make(chan error, 1)
	go func() {
		_, _, err := fetch(ts.URL + "/artifacts/block?iters=77001")
		plain <- err
	}()
	<-blockRunning

	traced := make(chan error, 1)
	go func() {
		resp, body, err := fetch(ts.URL + "/artifacts/sim?trace=1&iters=50")
		if err == nil {
			_, _, err = traceParts(resp, body)
		}
		traced <- err
	}()
	select {
	case err := <-traced:
		if err != nil {
			t.Errorf("traced request beside a plain render: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("a ?trace=1 request waited on a plain render in flight")
	}
	blockGate <- struct{}{}
	if err := <-plain; err != nil {
		t.Errorf("plain render: %v", err)
	}
}

// TestTracedResponsesDeterministicUnderLoad is determinism without the
// gate: traced and plain requests in flight together, every traced
// response carrying the plain table and the very trace a request
// recorded alone — a recording is a function of its request, not of
// what other traffic left in the shared pool or is doing to it now.
func TestTracedResponsesDeterministicUnderLoad(t *testing.T) {
	_, ts := newServer(t, api.Options{})
	const tracedURL = "/artifacts/sim?trace=1&iters=300"
	_, plainBody := get(t, ts.URL+"/artifacts/sim?iters=300")
	resp, body := get(t, ts.URL+tracedURL)
	wantTable, wantTrace, err := traceParts(resp, body)
	if err != nil {
		t.Fatal(err)
	}
	if wantTable != plainBody {
		t.Fatalf("traced table differs from plain render:\n--- plain ---\n%s\n--- traced ---\n%s", plainBody, wantTable)
	}
	if !strings.Contains(wantTrace, `"restore"`) || !strings.Contains(wantTrace, `"pooled":1`) {
		t.Fatal("the trace recorded alone shows no machine checked out of a pool and parked again; the comparison below would be of nothing")
	}

	const traced, plain = 4, 8
	var wg sync.WaitGroup
	for i := 0; i < traced+plain; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i >= traced {
				// A key of its own each, so every one simulates.
				if resp, body, err := fetch(fmt.Sprintf("%s/artifacts/sim?iters=%d", ts.URL, 301+i)); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("plain request %d: %v: %s", i, err, body)
				}
				return
			}
			resp, body, err := fetch(ts.URL + tracedURL)
			if err != nil {
				t.Errorf("traced request %d: %v", i, err)
				return
			}
			table, trace, err := traceParts(resp, body)
			if err != nil {
				t.Errorf("traced request %d: %v", i, err)
				return
			}
			if table != plainBody {
				t.Errorf("traced request %d: table differs from the plain render:\n%s", i, table)
			}
			if trace != wantTrace {
				t.Errorf("traced request %d: trace under load (%d bytes) differs from the one recorded alone (%d bytes)", i, len(trace), len(wantTrace))
			}
		}()
	}
	wg.Wait()
}
