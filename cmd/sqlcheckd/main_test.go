package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sqlcheck"
)

func server(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(sqlcheck.New()))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := server(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestCheckEndpoint(t *testing.T) {
	srv := server(t)
	// The paper's own REST example.
	body := `{"query":"INSERT INTO Users VALUES (1,'foo')"}`
	resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var report sqlcheck.Report
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if !report.Has("implicit-columns") {
		t.Errorf("findings = %+v", report.Findings)
	}
	for _, f := range report.Findings {
		if f.Fix.Guidance == "" && !f.Fix.Automated() {
			t.Errorf("finding %s lacks a fix", f.Rule)
		}
	}
}

func TestCheckEndpointErrors(t *testing.T) {
	srv := server(t)
	cases := []struct {
		method, body string
		wantStatus   int
	}{
		{"POST", `{"query":""}`, http.StatusBadRequest},
		{"POST", `{bad json`, http.StatusBadRequest},
		{"GET", ``, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		var resp *http.Response
		var err error
		if c.method == "GET" {
			resp, err = http.Get(srv.URL + "/api/check")
		} else {
			resp, err = http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(c.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %q: status = %d, want %d", c.method, c.body, resp.StatusCode, c.wantStatus)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv := server(t)
	resp, err := http.Get(srv.URL + "/api/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var catalog []sqlcheck.RuleInfo
	if err := json.NewDecoder(resp.Body).Decode(&catalog); err != nil {
		t.Fatal(err)
	}
	// The registry is process-global, so fixtures other tests register
	// (IDs prefixed "test-") show up here; count only the built-ins.
	builtin := 0
	for _, r := range catalog {
		if !strings.HasPrefix(r.ID, "test-") {
			builtin++
		}
	}
	if builtin != 27 {
		t.Errorf("catalog = %d built-in rules", builtin)
	}
	// The catalog carries the planning metadata clients select subsets
	// with: scopes, admitted kinds, resource needs, impact flags.
	sawNeeds, sawKinds := false, false
	for _, r := range catalog {
		if len(r.Scopes) == 0 {
			t.Errorf("rule %s has no scopes over the wire", r.ID)
		}
		sawNeeds = sawNeeds || len(r.Needs) > 0
		sawKinds = sawKinds || len(r.Kinds) > 0
	}
	if !sawNeeds || !sawKinds {
		t.Errorf("catalog metadata missing: needs=%v kinds=%v", sawNeeds, sawKinds)
	}
}

// TestCheckEndpointWorkloadRules drives the per-request rule subset:
// a query-rule-only workload against a registered database runs
// without snapshotting or profiling (visible on /metrics), disabled
// rules never fire, and unknown rule IDs are the client's error.
func TestCheckEndpointWorkloadRules(t *testing.T) {
	srv := server(t)
	fixture := `CREATE TABLE tenants (id INT PRIMARY KEY, user_ids TEXT);` +
		`INSERT INTO tenants VALUES (1, 'U1,U2,U3');` +
		`INSERT INTO tenants VALUES (2, 'U4,U5,U6');` +
		`INSERT INTO tenants VALUES (3, 'U7,U8,U9');` +
		`INSERT INTO tenants VALUES (4, 'U1,U5,U9');` +
		`INSERT INTO tenants VALUES (5, 'U2,U4,U8');` +
		`INSERT INTO tenants VALUES (6, 'U3,U6,U7');`
	reg, err := http.Post(srv.URL+"/api/databases/subsets", "application/json",
		strings.NewReader(fmt.Sprintf(`{"fixture": %q}`, fixture)))
	if err != nil {
		t.Fatal(err)
	}
	reg.Body.Close()
	if reg.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", reg.StatusCode)
	}

	body := `{"workloads": [{"sql": "SELECT * FROM tenants WHERE user_ids LIKE '%U5%' ORDER BY RAND()",
		"db": "subsets", "rules": ["column-wildcard", "order-by-rand"]}]}`
	resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	rep := batch.Reports[0]
	if !rep.Has("column-wildcard") || !rep.Has("order-by-rand") {
		t.Errorf("subset findings = %+v", rep.Findings)
	}
	if rep.Has("multi-valued-attribute") {
		t.Error("disabled MVA rule fired on a rule-scoped request")
	}

	// The plan is visible on /metrics: no snapshot was taken, and the
	// skipped-phase counters moved.
	mresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m sqlcheck.Metrics
	err = json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshots != 0 || m.Skips.Snapshot != 1 || m.Skips.Profile != 1 {
		t.Errorf("query-only request: snapshots=%d skips=%+v", m.Snapshots, m.Skips)
	}
	// And in the Prometheus rendering.
	promResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if !strings.Contains(string(prom), `sqlcheck_phase_skipped_total{phase="profile"} 1`) {
		t.Errorf("prometheus rendering lacks skip counter:\n%s", prom)
	}

	// Unknown rule IDs: 400, naming the ID.
	bad, err := http.Post(srv.URL+"/api/check", "application/json",
		strings.NewReader(`{"workloads": [{"sql": "SELECT 1", "rules": ["nope-rule"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "nope-rule") {
		t.Errorf("unknown rule: status=%d body=%s", bad.StatusCode, msg)
	}
}

func TestCheckEndpointBatch(t *testing.T) {
	srv := server(t)
	body := `{"queries": [
		"CREATE TABLE t (id INT PRIMARY KEY, v FLOAT); SELECT * FROM t ORDER BY RAND()",
		"INSERT INTO Users VALUES (1,'foo')"
	]}`
	resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(batch.Reports))
	}
	if !batch.Reports[0].Has("order-by-rand") {
		t.Errorf("workload 0 findings = %+v", batch.Reports[0].Findings)
	}
	if !batch.Reports[1].Has("implicit-columns") {
		t.Errorf("workload 1 findings = %+v", batch.Reports[1].Findings)
	}
}

func TestCheckEndpointBatchErrors(t *testing.T) {
	srv := server(t)
	for _, body := range []string{
		`{"queries": []}`,
		`{"query": "SELECT 1", "queries": ["SELECT 2"]}`,
		`{}`,
	} {
		resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestCheckEndpointConcurrent fires overlapping requests at one
// handler — all drawing from the checker's shared worker pool. Run
// under -race this is the daemon's thread-safety test.
func TestCheckEndpointConcurrent(t *testing.T) {
	srv := server(t)
	workload := `{"query": "CREATE TABLE t (id INT PRIMARY KEY, total FLOAT); SELECT * FROM t ORDER BY RAND() LIMIT 5"}`
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(workload))
				if err != nil {
					errc <- err
					return
				}
				var report sqlcheck.Report
				err = json.NewDecoder(resp.Body).Decode(&report)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if !report.Has("order-by-rand") || !report.Has("rounding-errors") {
					errc <- fmt.Errorf("incomplete report: %v", report.Findings)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCheckEndpointWorkloads: database-attached analysis over HTTP —
// fixtures build real tables, so data rules fire.
func TestCheckEndpointWorkloads(t *testing.T) {
	srv := server(t)
	fixture := `CREATE TABLE tenants (id INT PRIMARY KEY, user_ids TEXT);` +
		`INSERT INTO tenants VALUES (1, 'U1,U2,U3');` +
		`INSERT INTO tenants VALUES (2, 'U4,U5,U6');` +
		`INSERT INTO tenants VALUES (3, 'U7,U8,U9');` +
		`INSERT INTO tenants VALUES (4, 'U1,U5,U9');` +
		`INSERT INTO tenants VALUES (5, 'U2,U4,U8');` +
		`INSERT INTO tenants VALUES (6, 'U3,U6,U7');` +
		`INSERT INTO tenants VALUES (7, 'U1,U4,U7');` +
		`INSERT INTO tenants VALUES (8, 'U2,U5,U8');` +
		`INSERT INTO tenants VALUES (9, 'U3,U5,U7');` +
		`INSERT INTO tenants VALUES (10, 'U2,U6,U9');`
	req := map[string]any{
		"workloads": []map[string]any{
			{"sql": "SELECT * FROM tenants WHERE user_ids LIKE '%U5%'", "fixture": fixture},
			{"sql": "SELECT * FROM t ORDER BY RAND()"},
		},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(batch.Reports))
	}
	if !batch.Reports[0].Has("multi-valued-attribute") {
		t.Errorf("data rule did not fire on fixture workload; findings = %+v", batch.Reports[0].Findings)
	}
	if !batch.Reports[1].Has("order-by-rand") {
		t.Errorf("plain workload findings = %+v", batch.Reports[1].Findings)
	}
}

func TestCheckEndpointWorkloadErrors(t *testing.T) {
	srv := server(t)
	for _, body := range []string{
		`{"workloads": [{"sql": "SELECT 1", "fixture": "INSERT INTO missing VALUES (1)"}]}`,
		`{"query": "SELECT 1", "workloads": [{"sql": "SELECT 2"}]}`,
		`{"workloads": []}`,
	} {
		resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint drives a repeated batch through the daemon and
// asserts /metrics reports a non-zero cache hit rate, in both the
// Prometheus text and JSON renderings. The batch is shaped to exercise
// both sharing layers: workloads 1 and 2 are byte-identical, so the
// second coalesces onto the first instead of touching any cache, while
// workload 3 shares only its CREATE statement — a parse-cache hit. The
// checker runs at concurrency 1 so workload 3 parses after workload 1:
// two workers can both miss on the shared CREATE, which the cache
// permits by design.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(sqlcheck.New(sqlcheck.Options{Concurrency: 1})))
	t.Cleanup(srv.Close)
	body := `{"queries": [
		"CREATE TABLE t (id INT PRIMARY KEY, v FLOAT); SELECT * FROM t ORDER BY RAND()",
		"CREATE TABLE t (id INT PRIMARY KEY, v FLOAT); SELECT * FROM t ORDER BY RAND()",
		"CREATE TABLE t (id INT PRIMARY KEY, v FLOAT); SELECT v FROM t WHERE id = 3"
	]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/api/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m sqlcheck.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	// Content negotiation must also honor real-world Accept headers
	// (parameters, alternatives), not just the bare media type.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json, text/plain;q=0.5")
	accResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var viaAccept sqlcheck.Metrics
	err = json.NewDecoder(accResp.Body).Decode(&viaAccept)
	accResp.Body.Close()
	if err != nil {
		t.Errorf("Accept: application/json did not yield JSON: %v", err)
	}
	if m.Cache.Hits == 0 {
		t.Errorf("batch of repeated statements produced no cache hits: %+v", m.Cache)
	}
	if m.Cache.HitRate() == 0 {
		t.Errorf("hit rate = 0; stats %+v", m.Cache)
	}
	if m.Pool.Tasks == 0 {
		t.Errorf("pool tasks not counted: %+v", m.Pool)
	}
	if m.Coalesce.InBatch == 0 {
		t.Errorf("duplicate in-batch workload did not coalesce: %+v", m.Coalesce)
	}

	text, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	raw, err := io.ReadAll(text.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if ct := text.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"sqlcheck_cache_hits_total",
		"sqlcheck_cache_hit_rate",
		"\nsqlcheck_pool_in_use ",
		`sqlcheck_phase_seconds_bucket{phase="parse",le="+Inf"}`,
		`sqlcheck_phase_seconds_count{phase="global"}`,
		"sqlcheck_coalesce_in_batch_total",
		"sqlcheck_coalesce_singleflight_total",
		"sqlcheck_http_responses_total",
		"sqlcheck_http_buffers_reused_total",
		"\nsqlcheck_go_heap_alloc_objects_total ",
		"\nsqlcheck_go_heap_alloc_bytes_total ",
		"\nsqlcheck_go_gc_cycles_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if strings.Contains(out, "sqlcheck_cache_hits_total 0\n") {
		t.Error("prometheus output reports zero cache hits after repeated batches")
	}

	// The runtime's allocation counters grow across one cold check.
	before := metricsSnapshot(t, srv.URL).Runtime
	cold, err := http.Post(srv.URL+"/api/check", "application/json",
		strings.NewReader(`{"query":"CREATE TABLE u (id INT, tags TEXT); SELECT * FROM u WHERE tags LIKE '%cold%'"}`))
	if err != nil {
		t.Fatal(err)
	}
	cold.Body.Close()
	after := metricsSnapshot(t, srv.URL).Runtime
	if after.HeapAllocObjects <= before.HeapAllocObjects || after.HeapAllocBytes <= before.HeapAllocBytes {
		t.Errorf("allocation counters did not grow across a cold check: %+v -> %+v", before, after)
	}
}
