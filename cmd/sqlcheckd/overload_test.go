package main

// The overload guarantee: a daemon with two inflight slots and a
// four-deep queue, driven past capacity with corpus traffic, answers
// every request 200 or 429 with Retry-After, serves only reports that
// match a sequential reference checker, and serves a lone client
// without shedding once the burst is over.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcheck"
	"sqlcheck/internal/corpus"
)

// The traffic mix: 60% cold misses (a unique literal defeats every
// cache), 20% duplicate batches (one salted script repeated within a
// batch, so coalescing runs it once) and the rest warm repeats of
// unsalted corpus scripts.
const (
	overloadColdFrac  = 0.6
	overloadDupFrac   = 0.2
	overloadDupRepeat = 8
)

// overloadScripts renders one script per corpus repository, capped at
// 12 statements so a request stays an API-sized payload.
func overloadScripts() []string {
	c := corpus.GitHub(corpus.GitHubOptions{Repos: 16, Seed: 1})
	out := make([]string, 0, len(c.Repos))
	for _, r := range c.Repos {
		stmts := r.Statements[:min(len(r.Statements), 12)]
		out = append(out, strings.Join(stmts, ";\n"))
	}
	return out
}

// overloadMix draws one client's seeded sequence of check requests.
type overloadMix struct {
	scripts []string
	rng     *rand.Rand
	client  int
	n       int
}

func newOverloadMix(scripts []string, client int) *overloadMix {
	return &overloadMix{scripts: scripts, rng: rand.New(rand.NewPCG(1, uint64(client))), client: client}
}

// next returns the queries of the client's next request.
func (m *overloadMix) next() []string {
	script := m.scripts[m.rng.IntN(len(m.scripts))]
	m.n++
	switch roll := m.rng.Float64(); {
	case roll < overloadColdFrac:
		return []string{fmt.Sprintf("%s;\nSELECT 'cold-%d-%d' FROM generated", script, m.client, m.n)}
	case roll < overloadColdFrac+overloadDupFrac:
		salted := fmt.Sprintf("%s;\nSELECT 'dup-%d-%d' FROM generated", script, m.client, m.n)
		batch := make([]string, overloadDupRepeat)
		for i := range batch {
			batch[i] = salted
		}
		return batch
	default:
		return []string{script}
	}
}

// overloadRun posts check requests and keeps every 200 for the
// reference comparison. Any status but 200, or 429 with an integer
// Retry-After of at least 1, fails the test that posted it.
type overloadRun struct {
	url  string
	shed atomic.Int64
	mu   sync.Mutex
	ok   []servedBatch
}

type servedBatch struct {
	queries []string
	body    []byte
}

func (run *overloadRun) post(t *testing.T, queries []string) int {
	body, _ := json.Marshal(CheckRequest{Queries: queries})
	resp, err := http.Post(run.url+"/api/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("transport: %v", err)
		return 0
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Errorf("reading response: %v", err)
		return 0
	}
	switch resp.StatusCode {
	case http.StatusOK:
		run.mu.Lock()
		run.ok = append(run.ok, servedBatch{queries, raw})
		run.mu.Unlock()
	case http.StatusTooManyRequests:
		run.shed.Add(1)
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("429 with Retry-After %q, want an integer >= 1", ra)
		}
	default:
		t.Errorf("status %d, want 200 or 429: %s", resp.StatusCode, raw)
	}
	return resp.StatusCode
}

// verify compares every served report with the one a sequential,
// uncached, uncoalesced checker computes for the same script, after
// decoding and re-encoding the served one.
func (run *overloadRun) verify(t *testing.T) {
	ref := sqlcheck.New(sqlcheck.Options{Concurrency: 1, NoCoalesce: true})
	want := map[string][]byte{}
	for _, s := range run.ok {
		var br BatchResponse
		if err := json.Unmarshal(s.body, &br); err != nil {
			t.Fatalf("decoding a 200: %v", err)
		}
		if len(br.Errors) > 0 || len(br.Reports) != len(s.queries) {
			t.Fatalf("a 200 holds %d reports and errors %+v for %d queries", len(br.Reports), br.Errors, len(s.queries))
		}
		for i, q := range s.queries {
			w, ok := want[q]
			if !ok {
				reps, err := ref.CheckWorkloads(context.Background(), []sqlcheck.Workload{{SQL: q, NoReportCache: true}})
				if err != nil {
					t.Fatalf("reference check: %v", err)
				}
				w, _ = json.Marshal(reps[0])
				want[q] = w
			}
			got, _ := json.Marshal(br.Reports[i])
			if !bytes.Equal(got, w) {
				t.Errorf("served report for %.60q differs from the reference:\n got %s\nwant %s", q, got, w)
			}
		}
	}
}

// shedWithSlotsHeld holds both inflight slots in the blocking test
// rule, keeps the queue full, and sends eight more requests: every
// request but the two held ones must be shed. Its deferred teardown
// releases the held requests and waits for every goroutine it started,
// on failure too.
func (run *overloadRun) shedWithSlotsHeld(t *testing.T, scripts []string) {
	unblock := make(chan struct{})
	setBlockHook(func() { <-unblock })
	var blockers, fillers sync.WaitGroup
	var burstDone atomic.Bool
	defer func() {
		burstDone.Store(true)
		fillers.Wait()
		close(unblock)
		blockers.Wait()
		setBlockHook(nil)
	}()
	for i := range 2 {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			q := fmt.Sprintf("%s;\nSELECT note FROM generated WHERE note = 'ADM_BLOCK_MARKER %d'", scripts[i], i)
			if code := run.post(t, []string{q}); code != http.StatusOK {
				t.Errorf("held request %d: status %d, want 200", i, code)
			}
		}()
	}
	waitFor(t, func() bool { return metricsSnapshot(t, run.url).Admission.Inflight == 2 })

	// A queued request is shed after QueueWait, so each filler re-sends
	// until the burst is done; the queue stays full meanwhile.
	for c := range 4 {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			mix := newOverloadMix(scripts, 100+c)
			for !burstDone.Load() {
				if code := run.post(t, mix.next()); code != http.StatusTooManyRequests {
					t.Errorf("queued request: status %d with both slots held, want 429", code)
					return
				}
			}
		}()
	}
	waitFor(t, func() bool { return metricsSnapshot(t, run.url).Admission.Queued == 4 })
	var burst sync.WaitGroup
	for c := range 8 {
		burst.Add(1)
		go func() {
			defer burst.Done()
			if code := run.post(t, newOverloadMix(scripts, 200+c).next()); code != http.StatusTooManyRequests {
				t.Errorf("request past a full queue: status %d, want 429", code)
			}
		}()
	}
	burst.Wait()
}

// waitDrained waits until no request holds a slot, waits in the
// queue, or leads an open flight.
func waitDrained(t *testing.T, url string) {
	t.Helper()
	waitFor(t, func() bool {
		m := metricsSnapshot(t, url)
		return m.Admission.Inflight == 0 && m.Admission.Queued == 0 && m.Coalesce.OpenFlights == 0
	})
}

// TestOverloadGuarantee drives mixed corpus traffic past a daemon with
// two inflight slots and a four-deep queue in three phases: a
// deterministic shed with both slots held and the queue full, a ramp of
// 32 concurrent clients, and a lone client after the burst.
func TestOverloadGuarantee(t *testing.T) {
	registerAdmissionTestRules(t)
	srv := configuredServer(t, ServerConfig{
		MaxInflight: 2, MaxQueue: 4, QueueWait: 150 * time.Millisecond, RequestTimeout: 10 * time.Second,
	})
	before := metricsSnapshot(t, srv.URL)
	scripts := overloadScripts()
	run := &overloadRun{url: srv.URL}

	t.Run("shed", func(t *testing.T) {
		run.shedWithSlotsHeld(t, scripts)
	})
	t.Run("ramp", func(t *testing.T) {
		shedBefore := run.shed.Load()
		var clients sync.WaitGroup
		for c := range 32 {
			clients.Add(1)
			go func() {
				defer clients.Done()
				mix := newOverloadMix(scripts, c)
				for range 6 {
					run.post(t, mix.next())
				}
			}()
		}
		clients.Wait()
		t.Logf("%d of 192 requests shed", run.shed.Load()-shedBefore)
		waitDrained(t, srv.URL)
	})
	// One client holds at most one of the two slots, so nothing may
	// shed.
	t.Run("recovery", func(t *testing.T) {
		mix := newOverloadMix(scripts, 1000)
		for i := range 20 {
			if code := run.post(t, mix.next()); code != http.StatusOK {
				t.Errorf("post-burst request %d: status %d, want 200", i, code)
			}
		}
	})

	if resp, _ := do(t, "GET", srv.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the burst: status %d", resp.StatusCode)
	}
	waitDrained(t, srv.URL)
	after := metricsSnapshot(t, srv.URL)
	if d := after.RulePanics - before.RulePanics; d != 0 {
		t.Errorf("%d rule panics during the run", d)
	}
	if d := after.Timeouts - before.Timeouts; d != 0 {
		t.Errorf("%d request timeouts during the run", d)
	}
	if d := after.Panics - before.Panics; d != 0 {
		t.Errorf("%d handler panics during the run", d)
	}
	run.verify(t)
}
