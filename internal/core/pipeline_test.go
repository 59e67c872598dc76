package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcheck/internal/profile"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

// pipelineCorpus mixes DDL, DML, and anti-patterns so every pipeline
// stage has work: schema replay, cross-statement aggregates, query
// rules, and schema rules.
var pipelineCorpus = []string{
	`CREATE TABLE tenants (tenant_id INT PRIMARY KEY, user_ids TEXT, label VARCHAR)`,
	`CREATE TABLE hosting (id INT PRIMARY KEY, tenant_id INT, user_id VARCHAR)`,
	`CREATE TABLE prices (id INT PRIMARY KEY, amount FLOAT)`,
	`SELECT * FROM tenants ORDER BY RAND() LIMIT 3`,
	`SELECT label FROM tenants WHERE user_ids LIKE '%U12%'`,
	`SELECT DISTINCT t.label FROM tenants t JOIN hosting h ON t.tenant_id = h.tenant_id`,
	`INSERT INTO prices VALUES (1, 9.99)`,
	`SELECT h.user_id FROM hosting h WHERE h.tenant_id = 4`,
	`UPDATE tenants SET label = 'x' WHERE tenant_id = 2`,
}

func pipelineSQL(times int) string {
	var b strings.Builder
	for i := 0; i < times; i++ {
		for _, s := range pipelineCorpus {
			b.WriteString(s)
			b.WriteString(";\n")
		}
	}
	return b.String()
}

// TestEngineMatchesSequential is the pipeline contract: the engine's
// result equals the sequential path's result exactly, at any
// concurrency, with and without the prefilter.
func TestEngineMatchesSequential(t *testing.T) {
	sql := pipelineSQL(3)
	want := DetectSQL(sql, nil, DefaultOptions())
	for _, conc := range []int{1, 2, 8} {
		for _, noPre := range []bool{false, true} {
			opts := DefaultOptions()
			opts.NoPrefilter = noPre
			eng := NewEngine(opts, conc)
			out, err := eng.DetectWorkloads(context.Background(), []Workload{{SQL: sql}})
			if err != nil {
				t.Fatalf("conc=%d noPrefilter=%v: %v", conc, noPre, err)
			}
			if got := out[0]; !reflect.DeepEqual(want.Findings, got.Findings) {
				t.Errorf("conc=%d noPrefilter=%v: findings diverge from sequential path\nwant %d findings, got %d",
					conc, noPre, len(want.Findings), len(got.Findings))
			}
		}
	}
}

// TestEngineDeterministic re-runs the same workload many times on a
// parallel engine; result ordering must never vary.
func TestEngineDeterministic(t *testing.T) {
	sql := pipelineSQL(2)
	eng := NewEngine(DefaultOptions(), 8)
	ws := []Workload{{SQL: sql}}
	first, err := eng.DetectWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := eng.DetectWorkloads(context.Background(), ws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first[0].Findings, again[0].Findings) {
			t.Fatalf("run %d produced different findings", i)
		}
	}
}

func TestEngineBatch(t *testing.T) {
	workloads := []Workload{
		{SQL: pipelineSQL(1)},
		{SQL: `CREATE TABLE nopk (x INT); SELECT * FROM nopk`},
		{SQL: ``},
	}
	eng := NewEngine(DefaultOptions(), 4)
	results, err := eng.DetectWorkloads(context.Background(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workloads) {
		t.Fatalf("results = %d, want %d", len(results), len(workloads))
	}
	for i, w := range workloads {
		want := DetectSQL(w.SQL, nil, DefaultOptions())
		if !reflect.DeepEqual(want.Findings, results[i].Findings) {
			t.Errorf("workload %d diverges from sequential path", i)
		}
	}
	if len(results[2].Findings) != 0 || len(results[2].Context.Facts) != 0 {
		t.Errorf("empty workload should produce an empty result")
	}
}

func TestEngineCancellation(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DetectWorkloads(ctx, []Workload{{SQL: pipelineSQL(1)}, {SQL: pipelineSQL(2)}}); err == nil {
		t.Error("DetectWorkloads ignored a canceled context")
	}
}

// TestEngineParseCache verifies repeated statements parse once: the
// second identical workload should be all cache hits. The exact
// counts rely on a workload parsing its statements in order, on its
// own goroutine.
func TestEngineParseCache(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 1)
	sql := pipelineSQL(4) // 4 repetitions of 9 distinct statements
	if _, err := eng.DetectWorkloads(context.Background(), []Workload{{SQL: sql}}); err != nil {
		t.Fatal(err)
	}
	st := eng.Metrics().Cache
	hits, misses := st.Hits, st.Misses
	if misses != int64(len(pipelineCorpus)) {
		t.Errorf("misses = %d, want %d (one per distinct statement)", misses, len(pipelineCorpus))
	}
	if hits != int64(3*len(pipelineCorpus)) {
		t.Errorf("hits = %d, want %d", hits, 3*len(pipelineCorpus))
	}
}

func TestPoolBounds(t *testing.T) {
	if n := NewPool(0).Size(); n < 1 {
		t.Errorf("NewPool(0).Size() = %d", n)
	}
	if n := NewPool(3).Size(); n != 3 {
		t.Errorf("NewPool(3).Size() = %d", n)
	}
}

// TestPoolSizeOneBoundsCallers verifies the pool bound: it holds
// across concurrent callers sharing the pool, not just within one
// call, and with share nested inside each — the engine's shape, where
// a workload holding a slot fans its tables out. A nested blocking
// acquire would deadlock at size 1; share must return on a full pool.
func TestPoolSizeOneBoundsCallers(t *testing.T) {
	for _, tc := range []struct {
		size   int
		nested bool
	}{{1, false}, {1, true}, {2, true}} {
		t.Run(fmt.Sprintf("size%d-nested=%v", tc.size, tc.nested), func(t *testing.T) {
			p := NewPool(tc.size)
			var cur, peak atomic.Int32
			leaf := func(int) {
				c := cur.Add(1)
				for {
					old := peak.Load()
					if c <= old || peak.CompareAndSwap(old, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			}
			fn := leaf
			if tc.nested {
				fn = func(int) {
					if err := p.share(context.Background(), 3, leaf); err != nil {
						t.Error(err)
					}
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := p.each(context.Background(), 5, fn); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("pool calls did not return: nested acquisition deadlocked")
			}
			if n := peak.Load(); n < 1 || n > int32(tc.size) {
				t.Errorf("peak concurrent executions = %d, want 1..%d", n, tc.size)
			}
			if st := p.Stats(); st.InUse != 0 {
				t.Errorf("slots held after return: %+v", st)
			}
		})
	}
}

// workloadDB builds a small database with data-rule bait: an MVA
// list column, a functionally dependent pair, and enough rows for
// profiling to engage. seed varies content so each workload's
// database is distinct.
func workloadDB(seed int) *storage.Database {
	db := storage.NewDatabase(fmt.Sprintf("wdb%d", seed))
	tenants := db.CreateTable("tenants", []storage.ColumnDef{
		{Name: "tenant_id", Class: schema.ClassInteger},
		{Name: "user_ids", Class: schema.ClassText},
		{Name: "label", Class: schema.ClassChar},
	})
	for i := 0; i < 60; i++ {
		tenants.MustInsert(
			storage.Int(int64(i)),
			storage.Str(fmt.Sprintf("U%d,U%d,U%d", seed+i, seed+i+1, seed+i+2)),
			storage.Str(fmt.Sprintf("L%d", i%5)),
		)
	}
	orders := db.CreateTable("orders", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "city", Class: schema.ClassChar},
		{Name: "zip", Class: schema.ClassChar},
	})
	for i := 0; i < 60; i++ {
		city := fmt.Sprintf("C%d", i%6)
		orders.MustInsert(storage.Int(int64(i)), storage.Str(city), storage.Str("Z-"+city))
	}
	return db
}

// TestEngineWorkloadsDatabaseAttached is the workload contract: 8+
// database-attached workloads produce results identical to the
// sequential path, byte for byte, at concurrency 1 and at high
// concurrency.
func TestEngineWorkloadsDatabaseAttached(t *testing.T) {
	var ws []Workload
	for i := 0; i < 9; i++ {
		ws = append(ws, Workload{SQL: pipelineSQL(1), DB: workloadDB(i * 100)})
	}
	// Sequential ground truth per workload.
	want := make([]*Result, len(ws))
	for i, w := range ws {
		want[i] = DetectSQL(w.SQL, w.DB, DefaultOptions())
	}
	for _, conc := range []int{1, 8} {
		eng := NewEngine(DefaultOptions(), conc)
		got, err := eng.DetectWorkloads(context.Background(), ws)
		if err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		for i := range ws {
			if !reflect.DeepEqual(want[i].Findings, got[i].Findings) {
				t.Errorf("conc=%d workload %d diverges from sequential path", conc, i)
			}
			if !got[i].Context.HasData() {
				t.Errorf("conc=%d workload %d lost its data profiles", conc, i)
			}
		}
	}
}

// TestEngineWorkloadProfileOverride: per-workload profile options
// must override the engine defaults for that workload only.
func TestEngineWorkloadProfileOverride(t *testing.T) {
	db := workloadDB(0)
	small := profile.Options{SampleSize: 10}
	eng := NewEngine(DefaultOptions(), 2)
	got, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: `SELECT label FROM tenants`, DB: db, Profile: &small},
		{SQL: `SELECT label FROM tenants`, DB: db},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := got[0].Context.Profiles["tenants"].RowsSampled; n != 10 {
		t.Errorf("overridden workload sampled %d rows, want 10", n)
	}
	if n := got[1].Context.Profiles["tenants"].RowsSampled; n != 60 {
		t.Errorf("default workload sampled %d rows, want all 60", n)
	}
}

// phaseCount returns the observation count of one phase histogram.
func phaseCount(m EngineMetrics, phase string) int64 {
	for _, ph := range m.Phases {
		if ph.Phase == phase {
			return ph.Count
		}
	}
	return -1
}

// TestQueryOnlyWorkloadSkipsProfilingAndSnapshot is the demand-planning
// contract: a workload restricted to rules that need nothing from the
// database analyzes it as if no database were attached — no
// copy-on-write snapshot, no table profiling — and still produces
// exactly the findings those rules produce on a full-phase run.
func TestQueryOnlyWorkloadSkipsProfilingAndSnapshot(t *testing.T) {
	db := workloadDB(0)
	sql := pipelineSQL(1)
	subset := []string{rules.IDColumnWildcard, rules.IDOrderByRand, rules.IDDistinctJoin}

	// Ground truth: the full-phase run, filtered to the subset.
	full := DetectSQL(sql, db, DefaultOptions())
	var want []rules.Finding
	for _, f := range full.Findings {
		for _, id := range subset {
			if f.RuleID == id {
				want = append(want, f)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("subset found nothing on the corpus; test is vacuous")
	}

	eng := NewEngine(DefaultOptions(), 2)
	got, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: sql, DB: db, Rules: subset},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got[0].Findings) {
		t.Errorf("subset findings diverge from filtered full run:\nwant %+v\ngot  %+v", want, got[0].Findings)
	}
	m := eng.Metrics()
	if m.Snapshots != 0 {
		t.Errorf("query-only workload took %d snapshots, want 0", m.Snapshots)
	}
	if m.Skips.Snapshot != 1 || m.Skips.Profile != 1 {
		t.Errorf("skips = %+v, want snapshot=1 profile=1", m.Skips)
	}
	if n := phaseCount(m, PhaseProfile); n != 0 {
		t.Errorf("profile phase observed %d workloads, want 0", n)
	}
	if got[0].Context.HasData() {
		t.Error("query-only workload still built data profiles")
	}
}

// TestSchemaNeedingSubsetSnapshotsWithoutProfiling: a subset that
// refines against the schema but consumes no profiles still snapshots
// the database (reflection must not race with live DML) yet skips the
// profiling phase.
func TestSchemaNeedingSubsetSnapshotsWithoutProfiling(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 2)
	_, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: `SELECT label || user_ids FROM tenants`, DB: workloadDB(3),
			Rules: []string{rules.IDConcatenateNulls}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Snapshots != 1 || m.Skips.Snapshot != 0 {
		t.Errorf("snapshots = %d, skips = %+v; want one snapshot, none skipped", m.Snapshots, m.Skips)
	}
	if m.Skips.Profile != 1 || phaseCount(m, PhaseProfile) != 0 {
		t.Errorf("profiling ran: skips = %+v, phase count = %d", m.Skips, phaseCount(m, PhaseProfile))
	}
}

// TestDataOnlySubsetSkipsInterQueryPhase: a data-rule-only subset
// profiles the database but runs no schema-scoped rules, and its
// findings equal the sequential path under the same filter.
func TestDataOnlySubsetSkipsInterQueryPhase(t *testing.T) {
	db := workloadDB(5)
	subset := []string{rules.IDRedundantColumn, rules.IDIncorrectDataType}
	opts := DefaultOptions()
	opts.Rules = subset
	want := DetectSQL("", db, opts)

	eng := NewEngine(DefaultOptions(), 2)
	got, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: "", DB: db, Rules: subset},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Findings, got[0].Findings) {
		t.Errorf("data-only subset diverges from sequential path")
	}
	m := eng.Metrics()
	if m.Snapshots != 1 || phaseCount(m, PhaseProfile) != 1 {
		t.Errorf("data subset must snapshot and profile: snapshots=%d profile count=%d",
			m.Snapshots, phaseCount(m, PhaseProfile))
	}
	if m.Skips.InterQuery != 1 {
		t.Errorf("inter-query skips = %d, want 1", m.Skips.InterQuery)
	}
}

// TestWorkloadRulesOverrideEngineFilter: a workload's Rules replaces
// the engine's Options.Rules for that workload only.
func TestWorkloadRulesOverrideEngineFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.Rules = []string{rules.IDOrderByRand}
	eng := NewEngine(opts, 2)
	got, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: `SELECT * FROM t ORDER BY RAND()`},
		{SQL: `SELECT * FROM t ORDER BY RAND()`, Rules: []string{rules.IDColumnWildcard}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := CountByRule(got[0].Findings); c[rules.IDOrderByRand] != 1 || c[rules.IDColumnWildcard] != 0 {
		t.Errorf("engine filter workload: %v", c)
	}
	if c := CountByRule(got[1].Findings); c[rules.IDColumnWildcard] != 1 || c[rules.IDOrderByRand] != 0 {
		t.Errorf("workload override: %v", c)
	}
}

// TestUnknownRuleIDsFailAtAdmission: unknown IDs — per workload or in
// the engine options — fail the batch before any analysis runs.
func TestUnknownRuleIDsFailAtAdmission(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 2)
	_, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: "SELECT 1", Rules: []string{"no-such-rule"}},
	})
	if !errors.Is(err, rules.ErrUnknownRule) || !strings.Contains(err.Error(), "no-such-rule") {
		t.Errorf("workload rules: err = %v", err)
	}

	opts := DefaultOptions()
	opts.Rules = []string{"still-not-a-rule"}
	badEng := NewEngine(opts, 2)
	if _, err := badEng.DetectWorkloads(context.Background(), []Workload{{SQL: "SELECT 1"}}); !errors.Is(err, rules.ErrUnknownRule) {
		t.Errorf("engine rules: err = %v", err)
	}
}

// TestFailedAdmissionLeavesNoTrace: a batch rejected at admission —
// here a valid database workload followed by a bad rule filter —
// must cost nothing: no snapshot taken, no snapshot or skip counter
// moved. Metrics only ever describe analyses that were admitted.
func TestFailedAdmissionLeavesNoTrace(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 2)
	_, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: "SELECT 1", DB: workloadDB(2)},
		{SQL: "SELECT 1", Rules: []string{"no-such-rule"}},
	})
	if !errors.Is(err, rules.ErrUnknownRule) {
		t.Fatalf("err = %v, want ErrUnknownRule", err)
	}
	m := eng.Metrics()
	if m.Snapshots != 0 || m.Skips != (PhaseSkipStats{}) {
		t.Errorf("rejected batch left metrics: snapshots=%d skips=%+v", m.Snapshots, m.Skips)
	}
}

// errAfterCtx cancels itself after a fixed number of Err calls: the
// pipeline's periodic cancellation checks trip it deterministically
// mid-run, regardless of machine speed.
type errAfterCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	at    int
	done  chan struct{}
}

func newErrAfterCtx(at int) *errAfterCtx {
	return &errAfterCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *errAfterCtx) Done() <-chan struct{} { return c.done }

func (c *errAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls == c.at {
		close(c.done)
	}
	if c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestEngineWorkloadCancelMidProfile: cancellation during the data
// phase must abandon the profile scan and surface the context error.
func TestEngineWorkloadCancelMidProfile(t *testing.T) {
	db := storage.NewDatabase("big")
	tab := db.CreateTable("big", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
	})
	for i := 0; i < 50_000; i++ {
		tab.MustInsert(storage.Int(int64(i)))
	}
	eng := NewEngine(DefaultOptions(), 2)
	ctx := newErrAfterCtx(8) // trips during the 50k-row profile scan
	_, err := eng.DetectWorkloads(ctx, []Workload{{SQL: `SELECT id FROM big`, DB: db}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineMetrics: after a database-attached run every phase has
// observations and the pool counters are coherent: a workload takes
// one slot, its per-table profiling at most one helper per other
// slot, and a database-free workload exactly its own slot.
func TestEngineMetrics(t *testing.T) {
	eng := NewEngine(DefaultOptions(), 2)
	if _, err := eng.DetectWorkloads(context.Background(), []Workload{
		{SQL: pipelineSQL(1), DB: workloadDB(7)},
	}); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Pool.Size != 2 || m.Pool.InUse != 0 {
		t.Errorf("pool = %+v", m.Pool)
	}
	if m.Pool.Tasks < 1 || m.Pool.Tasks > int64(m.Pool.Size) {
		t.Errorf("database-attached workload took %d pool tasks, want 1..%d", m.Pool.Tasks, m.Pool.Size)
	}
	if m.Cache.Misses == 0 {
		t.Errorf("cache = %+v", m.Cache)
	}
	seen := map[string]PhaseStats{}
	for _, ph := range m.Phases {
		seen[ph.Phase] = ph
	}
	for _, name := range []string{PhaseParse, PhaseProfile, PhaseContext, PhaseQueryRules, PhaseGlobal} {
		ph, ok := seen[name]
		if !ok || ph.Count == 0 {
			t.Errorf("phase %s has no observations: %+v", name, ph)
			continue
		}
		last := ph.Buckets[len(ph.Buckets)-1]
		if last.LE >= 0 || last.Count != ph.Count {
			t.Errorf("phase %s +Inf bucket %+v, want cumulative count %d", name, last, ph.Count)
		}
	}

	before := m.Pool.Tasks
	if _, err := eng.DetectWorkloads(context.Background(), []Workload{{SQL: pipelineSQL(2)}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Pool.Tasks - before; got != 1 {
		t.Errorf("database-free workload took %d pool tasks, want 1", got)
	}
}
