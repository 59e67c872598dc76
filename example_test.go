package sqlcheck_test

// Runnable godoc examples for the public API: the one-call entry
// point, the Checker's profile and report caches, batch workloads, and
// the sentinel errors. `go test` executes every example and compares its
// printed output, so these stay correct by construction.

import (
	"context"
	"errors"
	"fmt"

	"sqlcheck"
)

// The one-call entry point: analyze a script, print the ranked rules.
func Example() {
	report, err := sqlcheck.New().CheckSQL(`
		CREATE TABLE t (id INT PRIMARY KEY, total FLOAT);
		SELECT * FROM t ORDER BY RAND() LIMIT 5;
	`)
	if err != nil {
		panic(err)
	}
	for _, f := range report.Findings {
		fmt.Println(f.Rule)
	}
	// Output:
	// order-by-rand
	// column-wildcard
	// rounding-errors
	// generic-primary-key
}

// The profile cache: a registered database re-checks without
// re-profiling until DML moves its version. The repeat opts out of
// report memoization so the pipeline (and therefore the profile
// lookup) actually runs.
func ExampleChecker_Metrics_profileCache() {
	checker := sqlcheck.New()

	db := sqlcheck.NewDatabase("app")
	db.MustExec("CREATE TABLE tenants (id INT PRIMARY KEY, user_ids TEXT)")
	db.MustExec("INSERT INTO tenants (id, user_ids) VALUES (1, 'U1,U2,U3')")
	if err := checker.RegisterDatabase("app", db); err != nil {
		panic(err)
	}

	w := sqlcheck.Workload{SQL: "SELECT user_ids FROM tenants", DBName: "app", NoReportCache: true}
	ctx := context.Background()
	if _, err := checker.CheckWorkloads(ctx, []sqlcheck.Workload{w}); err != nil {
		panic(err)
	}
	if _, err := checker.CheckWorkloads(ctx, []sqlcheck.Workload{w}); err != nil {
		panic(err)
	}
	fmt.Println("profile cache hits > 0:", checker.Metrics().ProfileCache.Hits > 0)
	// Output:
	// profile cache hits > 0: true
}

// The serving fast path: a repeated workload is a report-cache hit —
// served without parsing, profiling, or rule evaluation — and stays
// byte-equivalent to a cold analysis.
func ExampleChecker_Metrics_reportCache() {
	checker := sqlcheck.New(sqlcheck.Options{ReportCacheBytes: 16 << 20})

	sql := "SELECT name FROM users WHERE name LIKE '%smith'"
	first, err := checker.CheckSQL(sql)
	if err != nil {
		panic(err)
	}
	second, err := checker.CheckSQL(sql) // identical bytes: memoized
	if err != nil {
		panic(err)
	}
	st := checker.Metrics().ReportCache
	fmt.Println("hits:", st.Hits, "misses:", st.Misses, "fingerprints:", st.Fingerprints)
	fmt.Println("same findings:", len(first.Findings) == len(second.Findings))

	// Same query shape with a different literal shares a fingerprint
	// but NOT a report: rules read literal values, so only
	// byte-identical statements serve from the cache.
	if _, err := checker.CheckSQL("SELECT name FROM users WHERE name LIKE 'smith%'"); err != nil {
		panic(err)
	}
	fmt.Println("variant misses:", checker.Metrics().ReportCache.VariantMisses)
	// Output:
	// hits: 1 misses: 1 fingerprints: 1
	// same findings: true
	// variant misses: 1
}

// Duplicate-heavy batches coalesce: one pipeline run per distinct
// report identity, fanned out to every duplicate with byte-identical
// results. Options.NoCoalesce opts out — the same reports, but one
// pipeline run per workload.
func ExampleOptions_noCoalesce() {
	batch := make([]sqlcheck.Workload, 4)
	for i := range batch {
		batch[i] = sqlcheck.Workload{SQL: "SELECT * FROM t ORDER BY RAND()"}
	}
	ctx := context.Background()

	coalescing := sqlcheck.New()
	if _, err := coalescing.CheckWorkloads(ctx, batch); err != nil {
		panic(err)
	}
	fmt.Println("duplicates coalesced:", coalescing.Metrics().Coalesce.InBatch)

	cold := sqlcheck.New(sqlcheck.Options{NoCoalesce: true})
	if _, err := cold.CheckWorkloads(ctx, batch); err != nil {
		panic(err)
	}
	fmt.Println("with NoCoalesce:", cold.Metrics().Coalesce.InBatch)
	// Output:
	// duplicates coalesced: 3
	// with NoCoalesce: 0
}

// Batched workloads: findings carry spans into the submitted script.
func ExampleChecker_CheckWorkloads() {
	checker := sqlcheck.New()
	sql := "SELECT * FROM t;\nSELECT id FROM t ORDER BY RAND()"
	reports, err := checker.CheckWorkloads(context.Background(),
		[]sqlcheck.Workload{{SQL: sql}})
	if err != nil {
		panic(err)
	}
	for _, f := range reports[0].Findings {
		if f.Span != nil {
			fmt.Printf("%s line %d: %s\n", f.Rule, f.Span.Line, sql[f.Span.Start:f.Span.End])
		}
	}
	// Output:
	// order-by-rand line 2: SELECT id FROM t ORDER BY RAND()
	// column-wildcard line 1: SELECT * FROM t
}

// ErrUnknownRule fails a check whose rule filter names an ID that is
// not in the catalog; match it with errors.Is.
func ExampleErrUnknownRule() {
	checker := sqlcheck.New(sqlcheck.Options{Rules: []string{"no-such-rule"}})
	_, err := checker.CheckSQL("SELECT 1")
	fmt.Println(errors.Is(err, sqlcheck.ErrUnknownRule))
	// Output:
	// true
}

// ErrUnknownDatabase fails a batch referencing an unregistered
// database name.
func ExampleErrUnknownDatabase() {
	checker := sqlcheck.New()
	_, err := checker.CheckWorkloads(context.Background(),
		[]sqlcheck.Workload{{SQL: "SELECT 1", DBName: "missing"}})
	fmt.Println(errors.Is(err, sqlcheck.ErrUnknownDatabase))
	// Output:
	// true
}
