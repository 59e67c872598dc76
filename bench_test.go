// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the pipeline benchmarks gating this repo's
// concurrency work (one benchmark per artifact — DESIGN.md §4 is the
// index mapping each benchmark to its paper figure).
//
//	go test -bench=. -benchmem
//
// The per-experiment AP-vs-fixed timings print through -v via b.Log;
// `go run ./cmd/apbench` renders them as tables.
package sqlcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/core"
	"sqlcheck/internal/corpus"
	"sqlcheck/internal/exec"
	"sqlcheck/internal/experiments"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

// BenchmarkFigure3MVATasks regenerates Figure 3: the three GlobaLeaks
// tasks on the anti-pattern vs fixed design. Reported metrics are the
// per-task speedups.
func BenchmarkFigure3MVATasks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := experiments.Figure3(experiments.Small)
		for j, m := range ms {
			b.ReportMetric(m.Factor(), fmt.Sprintf("task%d-speedup", j+1))
		}
	}
}

// Per-task micro benchmarks: the AP and fixed sides of Figure 3's
// Task #1, so `-bench Figure3Task1` shows the raw per-query costs.
func BenchmarkFigure3Task1AP(b *testing.B) {
	db := corpus.GlobaLeaksMVA(corpus.GlobaLeaksOptions{Tenants: 800, Users: 2400, UsersPerTenant: 3})
	q := `SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1200[[:>:]]'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBench(b, db, q)
	}
}

func BenchmarkFigure3Task1Fixed(b *testing.B) {
	db := corpus.GlobaLeaksFixed(corpus.GlobaLeaksOptions{Tenants: 800, Users: 2400, UsersPerTenant: 3})
	q := `SELECT T.* FROM Hosting AS H JOIN Tenants AS T ON H.Tenant_ID = T.Tenant_ID WHERE H.User_ID = 'U1200'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBench(b, db, q)
	}
}

func mustBench(b *testing.B, db *storage.Database, q string) {
	b.Helper()
	if _, err := exec.RunSQL(db, q); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure8 regenerates Figure 8 (a–i) and reports each
// sub-experiment's AP/fixed factor.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := experiments.Figure8(experiments.Small)
		for _, m := range ms {
			b.ReportMetric(m.Factor(), firstWord(m.Label)+"-x")
		}
	}
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

// BenchmarkTable2Detection regenerates Table 2: detection quality of
// sqlcheck vs dbdeo over the labeled corpus. Reported metrics are
// false positives per detector.
func BenchmarkTable2Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(experiments.Small)
		b.ReportMetric(float64(res.TotalSqlcheck.FP), "sqlcheck-fp")
		b.ReportMetric(float64(res.TotalDbdeo.FP), "dbdeo-fp")
		b.ReportMetric(100*res.TotalSqlcheck.Recall(), "sqlcheck-recall-%")
		b.ReportMetric(100*res.TotalDbdeo.Recall(), "dbdeo-recall-%")
	}
}

// BenchmarkTable3Distribution regenerates Table 3's per-source
// detection totals.
func BenchmarkTable3Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(experiments.Small)
		s, d := 0, 0
		for _, n := range res.GitHubS {
			s += n
		}
		for _, n := range res.GitHubD {
			d += n
		}
		b.ReportMetric(float64(s), "github-sqlcheck")
		b.ReportMetric(float64(d), "github-dbdeo")
	}
}

// BenchmarkTable4Django regenerates the Django application audit
// (Tables 4 and 7).
func BenchmarkTable4Django(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4()
		det, rep := 0, 0
		for _, r := range rows {
			det += r.Detected
			rep += r.Reported
		}
		b.ReportMetric(float64(det), "detected")
		b.ReportMetric(float64(rep), "reported")
	}
}

// BenchmarkTable5DataAnalysis regenerates the Kaggle data-analysis
// experiment (Tables 5 and 6).
func BenchmarkTable5DataAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5()
		total := 0
		for _, r := range rows {
			total += r.Detected
		}
		b.ReportMetric(float64(total), "detected")
	}
}

// BenchmarkExample6Ranking regenerates the ranking-model walkthrough
// (Figures 6/7, Example 6).
func BenchmarkExample6Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.Example6()
		b.ReportMetric(e.C1IndexUnderuse, "c1-index-underuse")
		b.ReportMetric(e.C1EnumTypes, "c1-enum-types")
		b.ReportMetric(e.C2IndexUnderuse, "c2-index-underuse")
		b.ReportMetric(e.C2EnumTypes, "c2-enum-types")
	}
}

// BenchmarkUserStudy regenerates the §8.3 fix-acceptance pipeline.
func BenchmarkUserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.UserStudyReport()
		b.ReportMetric(100*res.Efficacy(), "efficacy-%")
		b.ReportMetric(float64(res.Detected), "detected")
	}
}

// BenchmarkAdjacencyAblation regenerates the §8.5 version ablation.
func BenchmarkAdjacencyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := experiments.AdjacencyAblation(experiments.Small)
		b.ReportMetric(ms[0].Factor(), "v9-x")
		b.ReportMetric(ms[1].Factor(), "v11-x")
	}
}

// BenchmarkDetectThroughput measures end-to-end detection throughput
// on a single application workload — the tool's interactive latency.
func BenchmarkDetectThroughput(b *testing.B) {
	c := corpus.GitHub(corpus.GitHubOptions{Repos: 1, Seed: 42, MinStatements: 40, MaxStatements: 40})
	sqlText := ""
	for _, s := range c.Repos[0].Statements {
		sqlText += s + ";\n"
	}
	checker := New()
	// Opt out of report memoization: this bench times detection itself
	// (BenchmarkFingerprintMemoized times the serving fast path).
	ws := []Workload{{SQL: sqlText, NoReportCache: true}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// corpusWorkloads builds repo-sized SQL scripts from the synthetic
// GitHub corpus: `repos` workloads of `stmtsPer` statements each.
func corpusWorkloads(repos, stmtsPer int) (workloads []string, total int) {
	c := corpus.GitHub(corpus.GitHubOptions{
		Repos: repos, Seed: 42,
		MinStatements: stmtsPer, MaxStatements: stmtsPer,
	})
	for _, r := range c.Repos {
		var sb strings.Builder
		for _, s := range r.Statements {
			sb.WriteString(s)
			sb.WriteString(";\n")
			total++
		}
		workloads = append(workloads, sb.String())
	}
	return workloads, total
}

// BenchmarkCheckSQLParallel measures a batch of six 40-statement
// workloads analyzed side by side on a GOMAXPROCS pool against the
// same batch one workload at a time (DESIGN.md §4). Parallelism is
// across workloads: each runs its statements in order on the slot it
// holds. Both variants run the identical algorithm and produce
// identical reports; on a multi-core runner the parallel variant
// demonstrates the pool's speedup, on a single core it shows parity.
// The headline metric is statements per second.
func BenchmarkCheckSQLParallel(b *testing.B) {
	workloads, total := corpusWorkloads(6, 40)
	for _, cfg := range []struct {
		name string
		conc int
	}{
		{"sequential", 1},
		{"parallel", 0}, // GOMAXPROCS workers
	} {
		b.Run(cfg.name, func(b *testing.B) {
			checker := New(Options{Concurrency: cfg.conc})
			// NoReportCache: repeated iterations must keep running the
			// pipeline this bench measures.
			ws := make([]Workload, len(workloads))
			for i, sql := range workloads {
				ws[i] = Workload{SQL: sql, NoReportCache: true}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "stmt/s")
		})
	}
}

// profileBenchDB builds a multi-table fixture sized so the data
// phase dominates analysis: `tables` tables of `rows` rows with
// mixed column shapes (numbers-as-text, list-like strings, FD pairs)
// so every profiling pass does real work.
func profileBenchDB(tables, rows int) *Database {
	inner := storage.NewDatabase("profilebench")
	for t := 0; t < tables; t++ {
		tab := inner.CreateTable(fmt.Sprintf("bench_t%02d", t), []storage.ColumnDef{
			{Name: "id", Class: schema.ClassInteger},
			{Name: "city", Class: schema.ClassChar},
			{Name: "zip", Class: schema.ClassChar},
			{Name: "val", Class: schema.ClassChar},
			{Name: "tags", Class: schema.ClassText},
		})
		for i := 0; i < rows; i++ {
			city := fmt.Sprintf("C%d", i%17)
			tab.MustInsert(
				storage.Int(int64(i)),
				storage.Str(city),
				storage.Str("Z-"+city),
				storage.Str(fmt.Sprintf("%d", i*3)),
				storage.Str(fmt.Sprintf("a%d,b%d,c%d", i%7, i%5, i%3)),
			)
		}
	}
	return &Database{inner: inner}
}

// BenchmarkProfileParallel measures the data-analysis phase — per-
// table profiling, the phase the paper says dominates on real
// applications — serial versus fanned out on the worker pool
// (DESIGN.md §4). Every iteration uses a fresh sampling seed, so each
// pass misses the profile-memoization cache and the bench times the
// cold profiling path (BenchmarkProfileMemoized covers the warm
// path). Reports are identical either way at a given seed.
//
// The historical regression this bench diagnoses: with the old
// clone-and-rescan profiler, per-table tasks allocated so heavily
// (~60k allocs and ~2MB per table) that on multi-core runners the
// fan-out serialized on the allocator and GC assists — parallel ≈
// serial despite 16 independent tasks. The single-pass profiler cut
// allocations >5x, which is what lets the fan-out scale; the parent
// benchmark computes the realized speedup, logs it, and fails on
// multi-core hardware if the parallel path stops winning. The
// headline metric is table profiles per second.
func BenchmarkProfileParallel(b *testing.B) {
	const tables, rows = 16, 2000
	db := profileBenchDB(tables, rows)
	var serialNs, parallelNs float64
	for _, cfg := range []struct {
		name string
		conc int
		out  *float64
	}{
		{"serial", 1, &serialNs},
		{"parallel", 0, &parallelNs}, // GOMAXPROCS workers
	} {
		b.Run(cfg.name, func(b *testing.B) {
			checker := New(Options{Concurrency: cfg.conc})
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh seed per iteration: a distinct cache key, so the
				// memoization layer never short-circuits the measured work.
				ws := []Workload{{SQL: `SELECT city FROM bench_t00 WHERE id = 7`,
					DB: db, ProfileSeed: uint64(i) + 1, NoReportCache: true}}
				if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tables*b.N)/b.Elapsed().Seconds(), "profiles/s")
			*cfg.out = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if cfg.conc == 0 && serialNs > 0 {
				// The speedup note: serial-vs-parallel ratio, printed on
				// the result line so every bench run (and the CI
				// artifact) records whether the fan-out is winning.
				speedup := serialNs / *cfg.out
				procs := runtime.GOMAXPROCS(0)
				b.ReportMetric(speedup, "speedup-x")
				b.Logf("data-phase parallelism: parallel %.2fx vs serial over %d tables (GOMAXPROCS=%d, serial %.1fms, parallel %.1fms per check)",
					speedup, tables, procs, serialNs/1e6, *cfg.out/1e6)
				// Fail only on outright serialization (parity despite
				// >=4 cores) — sub-linear scaling on a noisy shared
				// runner is the benchcmp gate's job, not a hard error.
				if procs >= 4 && speedup < 1.05 {
					b.Errorf("parallel data phase shows no speedup (%.2fx) on a %d-way machine; per-table tasks are serializing again",
						speedup, procs)
				}
			}
		})
	}
}

// BenchmarkProfileMemoized measures snapshot-versioned profile
// memoization — the cache that turns repeated checks of a registered,
// unchanged database from a sampling pass into an integer compare per
// table (DESIGN.md §2e). "cold" builds a fresh Checker per iteration,
// so every table profiles from scratch; "warm" reuses one Checker, so
// after the first batch every table is a cache hit keyed on its
// frozen (identity, version). Reports are byte-identical either way —
// pinned by the golden corpus — and the parent benchmark logs the
// realized speedup and fails if the warm path loses its >=10x edge.
func BenchmarkProfileMemoized(b *testing.B) {
	const tables, rows = 16, 2000
	db := profileBenchDB(tables, rows)
	// NoReportCache: the warm loop must exercise the profile cache, not
	// be served whole from the report cache above it.
	workloads := []Workload{{SQL: `SELECT city FROM bench_t00 WHERE id = 7`, DBName: "bench", NoReportCache: true}}
	var coldNs, warmNs float64

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checker := New()
			if err := checker.RegisterDatabase("bench", db); err != nil {
				b.Fatal(err)
			}
			if _, err := checker.CheckWorkloads(context.Background(), workloads); err != nil {
				b.Fatal(err)
			}
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	b.Run("warm", func(b *testing.B) {
		checker := New()
		if err := checker.RegisterDatabase("bench", db); err != nil {
			b.Fatal(err)
		}
		// Prime the cache; the measured loop is pure warm path.
		if _, err := checker.CheckWorkloads(context.Background(), workloads); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := checker.CheckWorkloads(context.Background(), workloads); err != nil {
				b.Fatal(err)
			}
		}
		warmNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if coldNs > 0 {
			// The speedup note, on the result line so every bench run
			// records the memoization payoff alongside ns/op.
			speedup := coldNs / warmNs
			b.ReportMetric(speedup, "speedup-x")
			b.Logf("profile memoization: warm check %.1fx faster than cold over %d tables (cold %.1fms, warm %.2fms per check)",
				speedup, tables, coldNs/1e6, warmNs/1e6)
			if speedup < 10 {
				b.Errorf("warm registered-database check only %.1fx faster than cold; want >= 10x", speedup)
			}
		}
	})
}

// BenchmarkFingerprintMemoized measures fingerprint-keyed report
// memoization — the serving fast path that turns a repeated workload
// into a cache probe plus a report clone, with no parsing, profiling,
// or rule evaluation (DESIGN.md §2f). "cold" analyzes a structurally
// identical workload whose literals change every iteration: the
// fingerprint matches but the byte-equality check rightly refuses to
// serve, so each pass runs the full pipeline (a variant miss — the
// cache's designed soundness boundary). "warm" repeats the workload
// byte-identically, so after priming every check is a report-cache
// hit. Reports are byte-identical warm or cold (pinned by the golden
// corpus and the race suite); the parent benchmark reports warm
// throughput and the realized speedup, and fails below 100k checks/s
// or a 20x edge.
func BenchmarkFingerprintMemoized(b *testing.B) {
	sql := cleanCRUD(12) +
		"SELECT * FROM orders ORDER BY RAND() LIMIT 3;\n" +
		"SELECT name FROM users WHERE name LIKE '%smith';\n"
	var coldNs, warmNs float64

	b.Run("cold", func(b *testing.B) {
		checker := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh literal each pass: same fingerprint, different
			// bytes — the memoized report must not be served, so this
			// times the pipeline the warm path skips.
			ws := []Workload{{SQL: sql + fmt.Sprintf("SELECT id FROM carts WHERE token = 'tok-%d';\n", i)}}
			if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
				b.Fatal(err)
			}
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	b.Run("warm", func(b *testing.B) {
		checker := New()
		ws := []Workload{{SQL: sql + "SELECT id FROM carts WHERE token = 'tok-0';\n"}}
		// Prime the cache; the measured loop is pure fast path.
		if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
		// The cold subbench just churned tens of MB of garbage; collect
		// it now so the microsecond-scale warm loop doesn't pay cold's
		// GC debt through mark assists.
		runtime.GC()
		b.ResetTimer()
		b.ReportAllocs()
		// Shared-runner hazard: a multi-ms scheduler stall landing in a
		// 0.3s measurement window inflates a ~1.5µs/op loop several
		// fold and fails the floor spuriously. The reported ns/op stays
		// the framework's whole-window measurement (benchcmp medians
		// absorb a stalled count), but the capability floors below gate
		// on the best 1000-iteration chunk — what the warm path can do
		// when the machine actually runs it.
		const chunk = 1000
		bestNs := float64(0)
		for done := 0; done < b.N; {
			n := chunk
			if rest := b.N - done; rest < n {
				n = rest
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
					b.Fatal(err)
				}
			}
			perOp := float64(time.Since(t0).Nanoseconds()) / float64(n)
			if bestNs == 0 || perOp < bestNs {
				bestNs = perOp
			}
			done += n
		}
		warmNs = bestNs
		checks := 1e9 / warmNs
		b.ReportMetric(checks, "checks/s")
		if rc := checker.Metrics().ReportCache; rc.Hits < int64(b.N) {
			b.Fatalf("warm loop was not served from the report cache: %+v", rc)
		}
		if coldNs > 0 {
			speedup := coldNs / warmNs
			b.ReportMetric(speedup, "speedup-x")
			b.Logf("report memoization: warm check %.0fx faster than cold (cold %.1fµs, warm %.2fµs per check, %.0fk checks/s)",
				speedup, coldNs/1e3, warmNs/1e3, checks/1e3)
			// Calibration rounds have no full chunk to measure; gate
			// the settled runs.
			if b.N >= chunk {
				if checks < 100_000 {
					b.Errorf("warm serving path at %.0f checks/s; want >= 100k", checks)
				}
				if speedup < 20 {
					b.Errorf("warm check only %.1fx faster than cold; want >= 20x", speedup)
				}
			}
		}
	})
}

// BenchmarkRegistryReuse measures the daemon registry's reason to
// exist: analyzing a database-attached workload against a registered
// database (fixture DDL/DML executed once, per-request cost is a
// copy-on-write snapshot) versus rebuilding the fixture from SQL on
// every request, as the inline `fixture` path does. The gap is the
// per-request fixture replay the registry amortizes away.
func BenchmarkRegistryReuse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE tenants (id INT PRIMARY KEY, name TEXT, user_ids TEXT);\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "INSERT INTO tenants VALUES (%d, 'tenant-%d', 'U%d,U%d,U%d');\n",
			i, i, i, i+300, i+600)
	}
	fixture := sb.String()
	const workloadSQL = `SELECT * FROM tenants WHERE user_ids LIKE '%U7%'`

	b.Run("registered", func(b *testing.B) {
		checker := New()
		db := NewDatabase("bench")
		if err := db.ExecScript(fixture); err != nil {
			b.Fatal(err)
		}
		if err := checker.RegisterDatabase("bench", db); err != nil {
			b.Fatal(err)
		}
		workloads := []Workload{{SQL: workloadSQL, DBName: "bench", NoReportCache: true}}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := checker.CheckWorkloads(context.Background(), workloads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inline", func(b *testing.B) {
		checker := New()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := NewDatabase("bench")
			if err := db.ExecScript(fixture); err != nil {
				b.Fatal(err)
			}
			if _, err := checker.CheckWorkloads(context.Background(), []Workload{{SQL: workloadSQL, DB: db, NoReportCache: true}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFixtureIngest measures tenant registration's dominant
// cost: a tenant-data fixture (4 tables × 4000 rows in 250-row
// INSERTs, ~0.8 MB, 68 statements) executed through ExecScript into a
// fresh database, reported in MB/s of script. Run it at -cpu 1,2: at
// one core it measures the one-pass lexing and the lean parse and
// insert paths alone; at two, ExecScript's parser goroutine also
// overlaps parsing with execution.
func BenchmarkFixtureIngest(b *testing.B) {
	fixture := corpus.TenantFixture(4000, 250, 1)
	b.SetBytes(int64(len(fixture)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := NewDatabase("tenant")
		if err := db.ExecScript(fixture); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryOnlyWorkload measures demand-planned phase skipping —
// spillScanDB builds one table of string-heavy rows at the storage
// layer for the page-cache scan benchmark — identical data per call
// so the managed and unmanaged variants scan the same bytes.
func spillScanDB(rows int) *storage.Database {
	db := storage.NewDatabase("spillscan")
	t := db.CreateTable("events", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "kind", Class: schema.ClassChar},
		{Name: "payload", Class: schema.ClassText},
	})
	for i := 0; i < rows; i++ {
		t.MustInsert(storage.Int(int64(i)),
			storage.Str(fmt.Sprintf("kind-%d", i%7)),
			storage.Str(fmt.Sprintf("payload %d: the quick brown fox jumps over the lazy dog %d", i, i*7)))
	}
	return db
}

// BenchmarkSpillScan measures what page-cache management costs the
// read path (DESIGN.md §2i). "resident" scans an unmanaged table —
// the zero-overhead fast path every inline database keeps. "hot"
// scans the same data adopted into a page cache whose budget holds
// the whole working set: nothing spills, so the delta is pure
// frame-management overhead (one pin/unpin per 128-row page). "cold"
// (informational, opt-in via SQLCHECK_BENCH_COLD=1) scans under a
// budget ~1/8 of the data, so every pass faults most pages back from
// the spill file — the price of exceeding the budget, paid in disk
// reads instead of OOM. Cold is excluded from the default (gated)
// run: fault latency rides the OS file cache, which drifts too much
// run-to-run to sit under benchcmp's regression threshold. The
// parent gates hot within 1.5x of resident: the spill machinery must
// be free when the working set fits.
func BenchmarkSpillScan(b *testing.B) {
	const rows = 48 * storage.PageRows // 48 pages, ~1 MiB of row data
	scan := func(b *testing.B, t *storage.Table) {
		live := 0
		t.ScanReadOnly(func(id int64, r storage.Row) bool {
			live++
			return true
		})
		if live != rows {
			b.Fatalf("scan saw %d rows, want %d", live, rows)
		}
	}
	var residentNs, hotNs float64

	b.Run("resident", func(b *testing.B) {
		t := spillScanDB(rows).Table("events")
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan(b, t)
		}
		residentNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	b.Run("hot", func(b *testing.B) {
		db := spillScanDB(rows)
		c := storage.NewPageCache(64<<20, b.TempDir()) // whole table fits
		defer c.Close()
		c.Adopt(db)
		t := db.Table("events")
		scan(b, t) // settle residency before timing
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan(b, t)
		}
		hotNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if st := c.Stats(); st.SpilledPages != 0 {
			b.Fatalf("hot working set should stay resident, stats %+v", st)
		}
	})

	b.Run("cold", func(b *testing.B) {
		if os.Getenv("SQLCHECK_BENCH_COLD") == "" {
			b.Skip("set SQLCHECK_BENCH_COLD=1 to time fault-dominated scans (too I/O-noisy for the regression gate)")
		}
		db := spillScanDB(rows)
		c := storage.NewPageCache(128<<10, b.TempDir()) // ~1/8 of the data
		defer c.Close()
		c.Adopt(db)
		t := db.Table("events")
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan(b, t)
		}
		coldNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if st := c.Stats(); st.Faults == 0 {
			b.Fatalf("cold scans must fault, stats %+v", st)
		}
		if residentNs > 0 {
			b.ReportMetric(coldNs/residentNs, "vs-resident-x")
		}
	})

	if residentNs > 0 && hotNs > 0 {
		ratio := hotNs / residentNs
		b.ReportMetric(ratio, "hot-vs-resident-x")
		b.Logf("spill scan: resident %.2fms, hot (cache-managed) %.2fms, ratio %.2fx",
			residentNs/1e6, hotNs/1e6, ratio)
		if ratio > 1.5 {
			b.Errorf("cache-managed hot scan %.2fx slower than unmanaged; want <= 1.5x", ratio)
		}
	}
}

// the rule catalog's metadata turned into wall-clock time. Both
// variants analyze the same SQL against the same registered
// multi-table database; "full" runs the whole catalog (snapshot +
// schema reflection + the data phase — profiles come from the
// memoization cache after the first iteration, so the steady state
// measured here is the warm full path), "query-only" restricts the
// workload to need-free query rules, so the engine takes no snapshot
// and touches neither schema nor profiles. The gap is the per-request
// cost rule selection avoids instead of filtering after the fact.
func BenchmarkQueryOnlyWorkload(b *testing.B) {
	db := profileBenchDB(16, 2000)
	const workloadSQL = `SELECT * FROM bench_t00 ORDER BY RAND();
SELECT id FROM bench_t01 WHERE city = 'C3';
INSERT INTO bench_t02 VALUES (1, 'a', 'b', 'c', 'd');`
	for _, cfg := range []struct {
		name  string
		rules []string
	}{
		{"full", nil},
		{"query-only", []string{"column-wildcard", "order-by-rand", "implicit-columns", "too-many-joins"}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			checker := New()
			if err := checker.RegisterDatabase("bench", db); err != nil {
				b.Fatal(err)
			}
			workloads := []Workload{{SQL: workloadSQL, DBName: "bench", Rules: cfg.rules, NoReportCache: true}}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckWorkloads(context.Background(), workloads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cleanCRUD builds a production-shaped workload: simple lookups and
// writes with no anti-patterns, where the dispatch prefilter should
// skip nearly the whole catalog per statement.
func cleanCRUD(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, "SELECT id FROM users WHERE email = 'u%d@example.com';\n", i)
		case 1:
			fmt.Fprintf(&sb, "UPDATE sessions SET expires_at = %d WHERE token = 'tok%d';\n", i, i)
		case 2:
			fmt.Fprintf(&sb, "SELECT name FROM products WHERE sku = %d;\n", i)
		case 3:
			fmt.Fprintf(&sb, "DELETE FROM carts WHERE id = %d;\n", i)
		}
	}
	return sb.String()
}

// BenchmarkRuleDispatch isolates the rule-dispatch prefilter: the
// per-statement query-rule phase over a prebuilt context, with gates
// versus a full catalog scan per statement (DESIGN.md §4). The
// context build and global phases are excluded so the two variants
// differ only in dispatch. Two workload shapes: "clean" is
// production-style CRUD where the prefilter skips most of the
// catalog; "dense" is the anti-pattern-saturated evaluation corpus —
// the prefilter's worst case, where gates admit most rules and add
// only overhead.
func BenchmarkRuleDispatch(b *testing.B) {
	dense, _ := corpusWorkloads(1, 200)
	for _, w := range []struct {
		name string
		sql  string
	}{
		{"clean", cleanCRUD(200)},
		{"dense", dense[0]},
	} {
		stmts := parser.ParseAll(w.sql)
		actx := appctx.Build(stmts, nil, core.DefaultOptions().Config)
		for _, cfg := range []struct {
			name  string
			noPre bool
		}{
			{"prefilter", false},
			{"full-scan", true},
		} {
			b.Run(w.name+"/"+cfg.name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.NoPrefilter = cfg.noPre
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.DetectQueries(actx, opts)
				}
			})
		}
	}
}

// BenchmarkColdParse measures the fully cold single-statement check —
// the path a never-before-seen query takes through lexing, parsing,
// context build, and rule evaluation with every cache defeated (a
// unique literal per iteration, report memoization off). This is the
// allocation benchmark for the zero-alloc lexing work: the gated
// allocs/op pins the removal of per-token strings.ToUpper, the
// streaming token paths, and the struct-keyed context maps (the
// rewrite cut allocs/op by ~half; see DESIGN.md §2g).
func BenchmarkColdParse(b *testing.B) {
	checker := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := []Workload{{
			SQL: fmt.Sprintf(
				"SELECT id, name FROM users WHERE email = 'user-%d@example.com' AND status = 'active'", i),
			NoReportCache: true,
		}}
		if _, err := checker.CheckWorkloads(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// coalescedBatch builds the duplicate-heavy batch: `unique` distinct
// scripts, each repeated `repeat` times, salted so one iteration's
// texts never byte-match another's (every leader is a report-cache
// variant miss and the bench times coalescing, not cache serving).
func coalescedBatch(unique, repeat, salt int) []Workload {
	ws := make([]Workload, 0, unique*repeat)
	for u := 0; u < unique; u++ {
		sql := fmt.Sprintf(
			"SELECT * FROM orders WHERE region = 'r%d-%d' ORDER BY RAND();\nSELECT name FROM users WHERE team = 't%d-%d'", u, salt, u, salt)
		for r := 0; r < repeat; r++ {
			ws = append(ws, Workload{SQL: sql})
		}
	}
	return ws
}

// BenchmarkBatchCoalesced measures in-batch statement coalescing on a
// duplicate-heavy batch: 64 workloads that are 8 distinct scripts
// repeated 8x, the shape of an ORM-driven request burst. "coalesced"
// is the default path — each distinct script runs the pipeline once
// and fans its result out to the seven repeats; "uncoalesced" is the
// same batch under Options.NoCoalesce, paying the pipeline 64 times.
// Reports are byte-identical either way — asserted here once before
// timing and pinned harder by TestCoalesceGolden — and the parent
// benchmark reports the realized speedup and fails below the 2x the
// optimization is specified to deliver on >=8x-duplicate batches.
func BenchmarkBatchCoalesced(b *testing.B) {
	const unique, repeat = 8, 16

	// One-time transparency check: the coalesced and uncoalesced paths
	// must serve byte-identical reports for the benchmarked batch.
	mustJSON := func(reports []*Report, err error) string {
		if err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(reports)
		if err != nil {
			b.Fatal(err)
		}
		return string(raw)
	}
	batch := coalescedBatch(unique, repeat, -1)
	co := mustJSON(New().CheckWorkloads(context.Background(), batch))
	un := mustJSON(New(Options{NoCoalesce: true}).CheckWorkloads(context.Background(), batch))
	if co != un {
		b.Fatal("coalesced batch reports differ from uncoalesced reports")
	}

	var coalescedNs, uncoalescedNs float64
	for _, cfg := range []struct {
		name       string
		noCoalesce bool
		out        *float64
	}{
		{"coalesced", false, &coalescedNs},
		{"uncoalesced", true, &uncoalescedNs},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			checker := New(Options{NoCoalesce: cfg.noCoalesce})
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckWorkloads(context.Background(), coalescedBatch(unique, repeat, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(unique*repeat*b.N)/b.Elapsed().Seconds(), "workloads/s")
			*cfg.out = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if cfg.noCoalesce && coalescedNs > 0 {
				speedup := *cfg.out / coalescedNs
				b.ReportMetric(speedup, "speedup-x")
				b.Logf("batch coalescing: %dx%d duplicate batch %.2fx faster coalesced (coalesced %.2fms, uncoalesced %.2fms)",
					unique, repeat, speedup, coalescedNs/1e6, *cfg.out/1e6)
				// Calibration rounds (b.N of a few) time one or two
				// batches and are pure scheduling noise; gate only the
				// settled measurement runs.
				if b.N >= 10 && speedup < 2 {
					b.Errorf("coalesced duplicate-heavy batch only %.2fx faster; want >= 2x", speedup)
				}
			}
		})
	}
}

// BenchmarkTable1Catalog and BenchmarkTable8Features render the static
// tables (cheap; present for per-artifact completeness).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable8Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table8(io.Discard)
	}
}
