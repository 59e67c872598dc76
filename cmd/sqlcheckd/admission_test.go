package main

// Overload-protection tests: admission bounds and shedding, tenant
// fairness, per-request deadlines, body bounds, unknown-field
// rejection, panic recovery, and the isolation contract for
// panicking custom rules.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlcheck"
)

// Test rules, registered once for the whole package (the rule
// registry is process-global). Both are inert unless a statement
// carries their trigger marker, so every other test in the package is
// unaffected. The blocking rule parks inside rule evaluation until
// the current hook says otherwise — how the tests hold an inflight
// slot open deterministically.
var (
	admRulesOnce sync.Once
	admBlockMu   sync.Mutex
	admBlockFn   func() // called while holding no locks
)

func setBlockHook(fn func()) {
	admBlockMu.Lock()
	admBlockFn = fn
	admBlockMu.Unlock()
}

func registerAdmissionTestRules(t *testing.T) {
	t.Helper()
	admRulesOnce.Do(func() {
		err := sqlcheck.RegisterRule(sqlcheck.CustomRule{
			ID:   "test-admission-block",
			Name: "Test blocking rule",
			Match: func(sql string) bool {
				if !strings.Contains(sql, "ADM_BLOCK_MARKER") {
					return false
				}
				admBlockMu.Lock()
				fn := admBlockFn
				admBlockMu.Unlock()
				if fn != nil {
					fn()
				}
				return false
			},
		})
		if err != nil {
			panic(err)
		}
		err = sqlcheck.RegisterRule(sqlcheck.CustomRule{
			ID:   "test-admission-panic",
			Name: "Test panicking rule",
			Match: func(sql string) bool {
				if strings.Contains(sql, "ADM_PANIC_MARKER") {
					panic("deliberate test-rule panic")
				}
				return false
			},
		})
		if err != nil {
			panic(err)
		}
	})
}

func configuredServer(t *testing.T, cfg ServerConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandlerConfig(sqlcheck.New(), cfg))
	t.Cleanup(srv.Close)
	return srv
}

func postCheck(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/api/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// --- admission controller unit tests ---

func TestAdmissionFastPathAndQueue(t *testing.T) {
	a := newAdmission(1, 1, 5*time.Second)
	rel1, reason := a.acquire(context.Background(), "")
	if reason != admitOK {
		t.Fatalf("first acquire: reason = %v", reason)
	}
	// Second request queues; third is shed with queue_full.
	admitted := make(chan func(), 1)
	go func() {
		rel2, r2 := a.acquire(context.Background(), "")
		if r2 != admitOK {
			t.Errorf("queued acquire: reason = %v", r2)
		}
		admitted <- rel2
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	if _, r3 := a.acquire(context.Background(), ""); r3 != shedQueueFull {
		t.Fatalf("third acquire: reason = %v, want shedQueueFull", r3)
	}
	rel1()
	rel2 := <-admitted
	rel2()
	st := a.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("after drain: inflight=%d queued=%d, want 0/0", st.Inflight, st.Queued)
	}
	if st.Admitted != 2 || st.ShedQueueFull != 1 {
		t.Errorf("admitted=%d shedQueueFull=%d, want 2/1", st.Admitted, st.ShedQueueFull)
	}
	if st.QueueWaitCount < 2 {
		t.Errorf("queue-wait observations = %d, want >= 2", st.QueueWaitCount)
	}
}

func TestAdmissionQueueWaitShed(t *testing.T) {
	a := newAdmission(1, 4, 50*time.Millisecond)
	rel, _ := a.acquire(context.Background(), "")
	defer rel()
	start := time.Now()
	if _, reason := a.acquire(context.Background(), ""); reason != shedQueueWait {
		t.Fatalf("reason = %v, want shedQueueWait", reason)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("shed after %v, before the queue-wait cap", waited)
	}
	if a.queued.Load() != 0 {
		t.Errorf("queued = %d after shed, want 0", a.queued.Load())
	}
}

func TestAdmissionClientCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, time.Minute)
	rel, _ := a.acquire(context.Background(), "t")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan admitReason, 1)
	go func() {
		_, reason := a.acquire(ctx, "t")
		done <- reason
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	cancel()
	if reason := <-done; reason != admitCanceled {
		t.Fatalf("reason = %v, want admitCanceled", reason)
	}
	rel()
	if a.queued.Load() != 0 || a.inflight.Load() != 0 {
		t.Errorf("leaked occupancy after cancel: inflight=%d queued=%d", a.inflight.Load(), a.queued.Load())
	}
	a.mu.Lock()
	tenants := len(a.tenants)
	a.mu.Unlock()
	if tenants != 0 {
		t.Errorf("leaked tenant bookkeeping: %d entries", tenants)
	}
}

func TestAdmissionTenantFairness(t *testing.T) {
	// capacity 6, fair share under contention with two active tenants
	// = 3 each.
	a := newAdmission(2, 4, time.Minute)
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, reason := a.acquire(context.Background(), "a")
		if reason != admitOK {
			t.Fatalf("tenant a acquire %d: reason = %v", i, reason)
		}
		releases = append(releases, rel)
	}
	// Tenant a's third request queues (held 3 of fair share 3).
	aQueued := make(chan func(), 1)
	go func() {
		rel, reason := a.acquire(context.Background(), "a")
		if reason != admitOK {
			t.Errorf("tenant a queued acquire: reason = %v", reason)
		}
		aQueued <- rel
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	// Tenant b arrives under its share: queued, not shed.
	bQueued := make(chan func(), 1)
	go func() {
		rel, reason := a.acquire(context.Background(), "b")
		if reason != admitOK {
			t.Errorf("tenant b acquire: reason = %v", reason)
		}
		bQueued <- rel
	}()
	waitFor(t, func() bool { return a.queued.Load() == 2 })
	// With competition present, a fourth tenant-a request is over fair
	// share: shed even though queue slots remain.
	if _, reason := a.acquire(context.Background(), "a"); reason != shedTenant {
		t.Fatalf("tenant a over-share acquire: reason = %v, want shedTenant", reason)
	}
	for _, rel := range releases {
		rel()
	}
	relA := <-aQueued
	relB := <-bQueued
	relA()
	relB()
	st := a.Stats()
	if st.ShedTenant != 1 {
		t.Errorf("shedTenant = %d, want 1", st.ShedTenant)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("after drain: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	a := newAdmission(2, 4, time.Minute)
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("idle retry-after = %d, want floor 1", got)
	}
	// Enormous observed service times clamp at the ceiling.
	a.observeService(10 * time.Minute)
	a.inflight.Store(2)
	a.queued.Store(4)
	if got := a.retryAfterSeconds(); got != 30 {
		t.Errorf("saturated retry-after = %d, want clamp 30", got)
	}
	a.inflight.Store(0)
	a.queued.Store(0)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- HTTP-level overload tests ---

func TestShedOverCapacityHTTP(t *testing.T) {
	registerAdmissionTestRules(t)
	srv := configuredServer(t, ServerConfig{
		MaxInflight: 1, MaxQueue: 1, QueueWait: 10 * time.Second,
	})

	entered := make(chan struct{}, 8)
	unblock := make(chan struct{})
	setBlockHook(func() {
		entered <- struct{}{}
		<-unblock
	})
	defer setBlockHook(nil)

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	// Distinct SQL per request so neither coalescing nor the report
	// cache serves the second one without analysis.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"query":"SELECT c%d FROM t WHERE note = 'ADM_BLOCK_MARKER'"}`, i)
			resp := postCheck(t, srv.URL, body)
			statuses[i] = resp.StatusCode
			resp.Body.Close()
		}(i)
	}
	<-entered // one request is analyzing; the other holds the queue slot

	// Wait until the queue slot is actually held before overflowing.
	waitForQueueDepth(t, srv.URL, 1)
	resp := postCheck(t, srv.URL, `{"query":"SELECT c9 FROM t WHERE note = 'ADM_BLOCK_MARKER'"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", ra)
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	resp.Body.Close()
	if !strings.Contains(errResp.Error, "overloaded") {
		t.Errorf("429 error = %q, want mention of overload", errResp.Error)
	}

	close(unblock)
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("admitted request %d: status = %d, want 200", i, code)
		}
	}

	m := metricsSnapshot(t, srv.URL)
	if m.Admission.ShedTotal() < 1 {
		t.Errorf("shed total = %d, want >= 1", m.Admission.ShedTotal())
	}
	if m.Admission.Inflight != 0 || m.Admission.Queued != 0 {
		t.Errorf("occupancy after drain: inflight=%d queued=%d", m.Admission.Inflight, m.Admission.Queued)
	}
}

// TestMalformedRequestRefusedBeforeAdmission pins that a request whose
// shape can never succeed is answered 400 even when the daemon is
// saturated: it neither takes an admission slot nor is shed with a 429
// that would invite the client to retry it.
func TestMalformedRequestRefusedBeforeAdmission(t *testing.T) {
	registerAdmissionTestRules(t)
	srv := configuredServer(t, ServerConfig{MaxInflight: 1, MaxQueue: 0})
	unblock := make(chan struct{})
	setBlockHook(func() { <-unblock })
	held := make(chan struct{})
	defer func() {
		close(unblock)
		<-held
		setBlockHook(nil)
	}()
	go func() {
		defer close(held)
		resp, err := http.Post(srv.URL+"/api/check", "application/json",
			strings.NewReader(`{"query":"SELECT c1 FROM t WHERE note = 'ADM_BLOCK_MARKER shape'"}`))
		if err != nil {
			t.Errorf("held request: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held request: status %d, want 200", resp.StatusCode)
		}
	}()
	waitFor(t, func() bool { return metricsSnapshot(t, srv.URL).Admission.Inflight == 1 })
	before := metricsSnapshot(t, srv.URL).Admission

	for _, tc := range []struct{ name, path, body, want string }{
		{"check_none", "/api/check", `{}`, "missing query"},
		{"check_query_and_queries", "/api/check", `{"query":"SELECT 1","queries":["SELECT 2"]}`, "exactly one"},
		{"check_query_and_workloads", "/api/check", `{"query":"SELECT 1","workloads":[{"sql":"SELECT 2"}]}`, "exactly one"},
		{"check_queries_and_workloads", "/api/check", `{"queries":["SELECT 1"],"workloads":[{"sql":"SELECT 2"}]}`, "exactly one"},
		{"check_fixture_and_db", "/api/check", `{"workloads":[{"sql":"SELECT 1","fixture":"CREATE TABLE t (id INT)","db":"d1"}]}`, "mutually exclusive"},
		{"register_empty_fixture", "/api/databases/d1", `{"fixture":""}`, "fixture required"},
		{"exec_empty_sql", "/api/databases/d1/exec", `{"sql":""}`, "sql required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := do(t, "POST", srv.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
				t.Errorf("%s %s: status %d body %s, want 400 naming %q", tc.path, tc.body, resp.StatusCode, raw, tc.want)
			}
		})
	}

	after := metricsSnapshot(t, srv.URL).Admission
	if after.Admitted != before.Admitted || after.ShedTotal() != before.ShedTotal() {
		t.Errorf("malformed requests reached admission: admitted %d -> %d, shed %d -> %d",
			before.Admitted, after.Admitted, before.ShedTotal(), after.ShedTotal())
	}
}

func waitForQueueDepth(t *testing.T, url string, depth int64) {
	t.Helper()
	waitFor(t, func() bool { return metricsSnapshot(t, url).Admission.Queued >= depth })
}

func metricsSnapshot(t *testing.T, url string) MetricsResponse {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRequestTimeout504(t *testing.T) {
	registerAdmissionTestRules(t)
	srv := configuredServer(t, ServerConfig{RequestTimeout: 100 * time.Millisecond})
	setBlockHook(func() { time.Sleep(400 * time.Millisecond) })
	defer setBlockHook(nil)

	before := metricsSnapshot(t, srv.URL).Timeouts
	resp := postCheck(t, srv.URL, `{"query":"SELECT c1 FROM t WHERE note = 'ADM_BLOCK_MARKER slow'"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errResp.Error, "timeout") {
		t.Errorf("504 error = %q, want mention of the timeout", errResp.Error)
	}
	if after := metricsSnapshot(t, srv.URL).Timeouts; after <= before {
		t.Errorf("request_timeouts did not move: before=%d after=%d", before, after)
	}
	// The daemon recovered: the same query (now unblocked) serves fine.
	setBlockHook(nil)
	resp2 := postCheck(t, srv.URL, `{"query":"SELECT c1 FROM t WHERE note = 'ADM_BLOCK_MARKER slow'"}`)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-timeout status = %d, want 200", resp2.StatusCode)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	srv := configuredServer(t, ServerConfig{MaxBodyBytes: 1024})
	big := `{"query":"SELECT 1 -- ` + strings.Repeat("x", 4096) + `"}`
	resp := postCheck(t, srv.URL, big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatalf("413 body must be JSON: %v", err)
	}
	if !strings.Contains(errResp.Error, "1024") {
		t.Errorf("413 error = %q, want the byte bound", errResp.Error)
	}
}

func TestUnknownField400(t *testing.T) {
	srv := server(t)
	for _, tc := range []struct{ path, body string }{
		{"/api/check", `{"query":"SELECT 1","rulse":["order-by-rand"]}`},
		{"/api/databases/d1", `{"fixtrue":"CREATE TABLE t (id INT)"}`},
		{"/api/databases/d1/exec", `{"slq":"INSERT INTO t VALUES (1)"}`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.path, resp.StatusCode)
		}
		var errResp ErrorResponse
		if err := json.Unmarshal(body, &errResp); err != nil {
			t.Fatalf("%s: body %q not JSON: %v", tc.path, body, err)
		}
		// The decoder's unknown-field error quotes the field name.
		if !strings.Contains(errResp.Error, "unknown field") {
			t.Errorf("%s: error = %q, want unknown-field mention", tc.path, errResp.Error)
		}
	}
	// The misspelled field must be named so the client can fix it.
	resp := postCheck(t, srv.URL, `{"query":"SELECT 1","rulse":["order-by-rand"]}`)
	defer resp.Body.Close()
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errResp.Error, "rulse") {
		t.Errorf("error = %q, want the field name %q", errResp.Error, "rulse")
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	before := serveStats.panics.Load()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/check", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := serveStats.panics.Load(); got != before+1 {
		t.Errorf("panics counter = %d, want %d", got, before+1)
	}
	var errResp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &errResp); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	if !strings.Contains(errResp.Error, "handler bug") {
		t.Errorf("error = %q, want the panic value", errResp.Error)
	}
}

// TestRulePanicIsolation is the isolation contract end to end: a
// batch mixing a workload that trips a panicking custom rule with a
// healthy one returns 200, a real report for the healthy workload,
// null plus an errors entry for the panicking one — and the daemon
// keeps serving.
func TestRulePanicIsolation(t *testing.T) {
	registerAdmissionTestRules(t)
	srv := server(t)
	body := `{"queries":[
		"SELECT c1 FROM t WHERE note = 'ADM_PANIC_MARKER'",
		"SELECT * FROM t ORDER BY RAND()"
	]}`
	resp := postCheck(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Reports) != 2 {
		t.Fatalf("reports = %d, want 2 slots", len(batch.Reports))
	}
	if batch.Reports[0] != nil {
		t.Errorf("panicking workload got a report; want null")
	}
	if batch.Reports[1] == nil {
		t.Fatalf("healthy workload got no report")
	} else if !batch.Reports[1].Has("order-by-rand") {
		t.Errorf("healthy workload report missing its finding")
	}
	if len(batch.Errors) != 1 {
		t.Fatalf("errors = %+v, want exactly one", batch.Errors)
	}
	if batch.Errors[0].Workload != 0 {
		t.Errorf("failed workload index = %d, want 0", batch.Errors[0].Workload)
	}
	if !strings.Contains(batch.Errors[0].Error, "test-admission-panic") {
		t.Errorf("error = %q, want the rule ID", batch.Errors[0].Error)
	}

	// A single-query panic is a server-side failure: 500, not 400.
	resp2 := postCheck(t, srv.URL, `{"query":"SELECT c2 FROM t WHERE note = 'ADM_PANIC_MARKER'"}`)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Errorf("single-query panic status = %d, want 500", resp2.StatusCode)
	}

	// The daemon is still healthy and the engine counted the panics.
	resp3 := postCheck(t, srv.URL, `{"query":"SELECT * FROM t ORDER BY RAND()"}`)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("post-panic status = %d, want 200", resp3.StatusCode)
	}
	if m := metricsSnapshot(t, srv.URL); m.RulePanics < 2 {
		t.Errorf("rule_panics = %d, want >= 2", m.RulePanics)
	}
}

func TestMetricsOverloadFamilies(t *testing.T) {
	srv := server(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"sqlcheck_admission_inflight",
		"sqlcheck_admission_queued",
		`sqlcheck_admission_shed_total{reason="queue_full"}`,
		`sqlcheck_admission_shed_total{reason="queue_wait"}`,
		`sqlcheck_admission_shed_total{reason="tenant_fair_share"}`,
		"sqlcheck_admission_queue_wait_seconds_bucket",
		"sqlcheck_admission_queue_wait_seconds_count",
		"sqlcheck_request_timeouts_total",
		"sqlcheck_panics_total",
		"sqlcheck_rule_panics_total",
		"sqlcheck_coalesce_open_flights",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	m := metricsSnapshot(t, srv.URL)
	if m.Admission.MaxInflight < 4 {
		t.Errorf("admission max_inflight = %d, want >= 4", m.Admission.MaxInflight)
	}
	if len(m.Admission.QueueWaitBuckets) == 0 {
		t.Errorf("queue-wait histogram empty in JSON snapshot")
	}
}
