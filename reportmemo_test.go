package sqlcheck

// Integration tests for the fingerprint-keyed serving fast path at
// the public API: hits require byte-identical statement texts (rules
// read literal values, so literal variants must never serve each
// other's reports), layout variants around identical statements do
// hit, and served findings carry spans rebound into the text actually
// submitted.

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"sqlcheck/internal/corpus"
	"sqlcheck/internal/xrand"
)

// spanSQL has two findings-bearing statements with distinctive texts.
const spanStmt1 = "SELECT * FROM users ORDER BY RAND() LIMIT 5"
const spanStmt2 = "SELECT name FROM users WHERE name LIKE '%smith'"

func checkOne(t *testing.T, c *Checker, w Workload) *Report {
	t.Helper()
	reports, err := c.CheckWorkloads(context.Background(), []Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	return reports[0]
}

func assertSpansLocate(t *testing.T, rep *Report, sql string, wantStmts []string) {
	t.Helper()
	spanned := 0
	for _, f := range rep.Findings {
		if f.Query < 0 {
			if f.Span != nil {
				t.Errorf("schema/data finding %s carries a span", f.Rule)
			}
			continue
		}
		if f.Span == nil {
			t.Errorf("statement finding %s (query %d) has no span", f.Rule, f.Query)
			continue
		}
		spanned++
		s := *f.Span
		if s.Start < 0 || s.End > len(sql) || sql[s.Start:s.End] != wantStmts[f.Query] {
			t.Errorf("finding %s span [%d,%d) does not locate statement %d in the submitted SQL: %q",
				f.Rule, s.Start, s.End, f.Query, sql[max(0, s.Start):min(len(sql), s.End)])
		}
	}
	if spanned == 0 {
		t.Fatal("no statement-level findings to span-check")
	}
}

// TestReportMemoSpansRebind: a layout variant of a cached workload —
// identical statement texts, different whitespace around them — is
// served from the report cache with spans rebound to the submitted
// bytes.
func TestReportMemoSpansRebind(t *testing.T) {
	checker := New()
	stmts := []string{spanStmt1, spanStmt2}

	cold := spanStmt1 + ";\n" + spanStmt2
	repCold := checkOne(t, checker, Workload{SQL: cold})
	assertSpansLocate(t, repCold, cold, stmts)

	// Same statements, radically different layout.
	warm := "\n\n\t " + spanStmt1 + "  ;\n\n\n-- interlude\n" + spanStmt2 + "\n\t"
	preHits := checker.Metrics().ReportCache.Hits
	repWarm := checkOne(t, checker, Workload{SQL: warm})
	if checker.Metrics().ReportCache.Hits == preHits {
		t.Fatal("layout variant with identical statement texts did not hit the report cache")
	}
	assertSpansLocate(t, repWarm, warm, stmts)

	// Hit and miss reports agree on everything except spans.
	strip := func(r *Report) string {
		c := cloneReport(r)
		for i := range c.Findings {
			c.Findings[i].Span = nil
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if strip(repCold) != strip(repWarm) {
		t.Fatalf("memoized report differs from cold beyond spans\ncold: %s\nwarm: %s", strip(repCold), strip(repWarm))
	}
}

// TestReportMemoLiteralSoundness: literal variants share a fingerprint
// but must never serve each other's reports — the LIKE leading-wildcard
// rule fires on '%smith' and not on 'smith%', so a fingerprint-only
// cache would serve a wrong report in one direction.
func TestReportMemoLiteralSoundness(t *testing.T) {
	checker := New()
	leading := "SELECT name FROM users WHERE name LIKE '%smith'"
	trailing := "SELECT name FROM users WHERE name LIKE 'smith%'"

	repLeading := checkOne(t, checker, Workload{SQL: leading})
	if !repLeading.Has("pattern-matching") {
		t.Fatal("leading-wildcard LIKE did not fire pattern-matching (fixture assumption broken)")
	}
	preVariant := checker.Metrics().ReportCache.VariantMisses
	repTrailing := checkOne(t, checker, Workload{SQL: trailing})
	if repTrailing.Has("pattern-matching") {
		t.Fatal("trailing-wildcard LIKE served the leading-wildcard report: literal variant crossed the cache")
	}
	if checker.Metrics().ReportCache.VariantMisses == preVariant {
		t.Error("literal variant was not counted as a variant miss")
	}

	// Both shapes stay independently memoized and repeat correctly.
	if rep := checkOne(t, checker, Workload{SQL: leading}); !rep.Has("pattern-matching") {
		t.Error("memoized leading-wildcard repeat lost its finding")
	}
	if rep := checkOne(t, checker, Workload{SQL: trailing}); rep.Has("pattern-matching") {
		t.Error("memoized trailing-wildcard repeat gained a wrong finding")
	}
}

// TestReportMemoOptOutAndResidency: the report cache's residency is
// visible through Metrics().ReportCache, and NoReportCache opts a
// workload out entirely — no hit, no miss, no entry — while its
// report stays byte-identical to the memoized one.
func TestReportMemoOptOutAndResidency(t *testing.T) {
	checker := New(Options{CacheBytes: 15 << 20})

	sql := spanStmt1 + ";\n" + spanStmt2
	rep := checkOne(t, checker, Workload{SQL: sql})
	raw, _ := json.Marshal(rep)
	st := checker.Metrics().ReportCache
	if st.Entries == 0 || st.Bytes == 0 || st.Fingerprints == 0 {
		t.Errorf("cache stats missing residency: %+v", st)
	}
	if st.Fingerprints > st.Entries {
		t.Errorf("fingerprint cardinality %d exceeds entries %d", st.Fingerprints, st.Entries)
	}

	// Opt-out: a NoReportCache repeat neither hits nor stores.
	before := checker.Metrics().ReportCache
	repOpt := checkOne(t, checker, Workload{SQL: sql, NoReportCache: true})
	after := checker.Metrics().ReportCache
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != before.Entries {
		t.Errorf("NoReportCache workload touched the cache: before %+v after %+v", before, after)
	}
	rawOpt, _ := json.Marshal(repOpt)
	if string(rawOpt) != string(raw) {
		t.Fatalf("opt-out report differs from memoized report\nopt: %s\nmemo: %s", rawOpt, raw)
	}
}

// TestReportMemoMutationIsolation: mutating a served report never
// corrupts the cached master.
func TestReportMemoMutationIsolation(t *testing.T) {
	checker := New()
	sql := spanStmt1
	first := checkOne(t, checker, Workload{SQL: sql})
	want, _ := json.Marshal(first)

	// Deface the served copy in place.
	for i := range first.Findings {
		first.Findings[i].Message = "defaced"
		if first.Findings[i].Span != nil {
			first.Findings[i].Span.Start = -1
		}
		for j := range first.Findings[i].Fix.Rewrites {
			first.Findings[i].Fix.Rewrites[j].Fixed = "defaced"
		}
	}
	second := checkOne(t, checker, Workload{SQL: sql})
	got, _ := json.Marshal(second)
	if string(got) != string(want) {
		t.Fatalf("mutating a served report leaked into the cache\nwant: %s\ngot:  %s", want, got)
	}
}

// TestReportCacheResidencyWithinBudget checks that the report cache's
// cost model bounds what a full cache retains, as
// TestParseCacheResidencyWithinBudget (internal/core) does for parsed
// statements: the live heap that filling the cache adds must stay
// within 1.1x the estimate Metrics().ReportCache.Bytes reports. An
// entry holds its report and its key, whose statement texts are a
// copy about the size of the script. Scripts are drawn from a small
// pool of corpus statements, so the parse cache holds the pool before
// the measurement starts; the script-print side cache is filled first
// with scripts the measurement never submits, so the measured scripts'
// prints are declined and only report entries grow. Not parallel: it
// measures the whole process heap.
func TestReportCacheResidencyWithinBudget(t *testing.T) {
	const cacheBytes = 30 << 20 // 8 MiB of reports, 2 MiB of script prints
	gh := corpus.GitHub(corpus.GitHubOptions{Repos: 40, Seed: 29})
	var pool []string
	seen := map[string]bool{}
	for _, repo := range gh.Repos {
		for _, stmt := range repo.Statements {
			if !seen[stmt] && len(pool) < 64 {
				seen[stmt] = true
				pool = append(pool, stmt)
			}
		}
	}
	rng := xrand.New(29)
	script := func() string {
		stmts := make([]string, 1+rng.Intn(8))
		for i := range stmts {
			stmts[i] = xrand.Pick(rng, pool)
		}
		return strings.Join(stmts, ";\n")
	}

	checker := New(Options{Concurrency: 1, CacheBytes: cacheBytes})
	// A script print costs more than twice its script's length, so
	// scripts totalling the side cache's budget at twice their length
	// fill it.
	for filled := 0; filled < cacheBytes/15; {
		sql := script()
		checkOne(t, checker, Workload{SQL: sql, NoReportCache: true})
		filled += 2 * len(sql)
	}
	if st := checker.Metrics().ReportCache; st.Entries != 0 {
		t.Fatalf("priming stored %d reports", st.Entries)
	}

	before := liveHeap()
	for st := checker.Metrics().ReportCache; st.Bytes < st.MaxBytes*9/10; st = checker.Metrics().ReportCache {
		checkOne(t, checker, Workload{SQL: script()})
	}
	growth := liveHeap() - before
	runtime.KeepAlive(pool)
	st := checker.Metrics().ReportCache
	ratio := float64(growth) / float64(st.Bytes)
	t.Logf("live heap +%d bytes for %d reports estimated at %d bytes: %.2fx", growth, st.Entries, st.Bytes, ratio)
	if ratio > 1.1 {
		t.Errorf("report cache retains %.2fx its estimated bytes, want <= 1.1x", ratio)
	}
}
