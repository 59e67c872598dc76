package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sqlcheck/internal/corpus"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
)

// TestParseCacheHitsAndBounds pins the parse adapter's keying and cost
// model: exact statement text is the key and an entry costs entryCost.
func TestParseCacheHitsAndBounds(t *testing.T) {
	c := NewParseCache(1 << 20)
	const stmt = "SELECT * FROM t WHERE id = 1"
	first := c.Parse(stmt)
	again := c.Parse(stmt)
	if first == nil || again == nil {
		t.Fatal("Parse returned nil statement")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.Bytes != entryCost(stmt) {
		t.Errorf("bytes = %d, want %d", st.Bytes, entryCost(stmt))
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

// within reports whether s's bytes lie inside outer's.
func within(s, outer string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(outer)))
	return p >= lo && p < lo+uintptr(len(outer))
}

// TestParseCachePinsNoScript pins that a cached statement holds
// nothing of the script its text was cut from: neither the entry's key
// nor the AST's strings may point into the request's bytes.
func TestParseCachePinsNoScript(t *testing.T) {
	script := "CREATE TABLE t (id INT);\nSELECT id FROM orders WHERE id = 1;\n"
	text := sqltoken.FingerprintScript(script).Texts()[1]
	if !within(text, script) {
		t.Fatal("FingerprintScript no longer returns substrings; the test needs another source")
	}
	c := NewParseCache(1 << 20)
	stmt := c.Parse(text)
	if stmt.Raw() != text {
		t.Fatalf("Raw() = %q, want %q", stmt.Raw(), text)
	}
	if within(stmt.Raw(), script) {
		t.Error("cached statement's Raw() points into the request script")
	}
	if from := stmt.(*sqlast.SelectStatement).From; len(from) != 1 || within(from[0].Name, script) {
		t.Errorf("cached FROM %+v points into the request script", from)
	}
	for key := range c.lru.entries {
		if within(key, script) {
			t.Error("cache key points into the request script")
		}
	}
	if c.Parse(text) != stmt {
		t.Error("repeat lookup missed the admitted statement")
	}
}

// TestParseCacheResidencyWithinBudget checks that the cost model
// bounds what a full cache really retains. Statements arrive as
// substrings of freshly joined scripts, as they do from a request, and
// each script is dropped once parsed, so the live heap the filled cache
// adds is what its entries hold. That must stay within 1.1x the
// estimate Stats().Bytes reports. Not parallel: it measures the whole
// process heap.
func TestParseCacheResidencyWithinBudget(t *testing.T) {
	gh := corpus.GitHub(corpus.GitHubOptions{Repos: 3000, Seed: 13, MinStatements: 8, MaxStatements: 16})
	c := NewParseCache(16 << 20)
	before := liveHeap()
	for _, repo := range gh.Repos {
		script := strings.Join(repo.Statements, ";\n") + ";\n"
		for _, text := range sqltoken.FingerprintScript(script).Texts() {
			c.Parse(text)
		}
	}
	growth := liveHeap() - before
	runtime.KeepAlive(gh) // the corpus must not be freed between the two readings
	st := c.Stats()
	if st.Bytes < st.MaxBytes*9/10 {
		t.Fatalf("corpus filled %d of %d budget bytes; the test needs a full cache", st.Bytes, st.MaxBytes)
	}
	ratio := float64(growth) / float64(st.Bytes)
	t.Logf("live heap +%d bytes for %d entries estimated at %d bytes: %.2fx", growth, st.Entries, st.Bytes, ratio)
	if ratio > 1.1 {
		t.Errorf("cache retains %.2fx its estimated bytes, want <= 1.1x", ratio)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestScriptPrintResidencyWithinBudget does for the report cache's
// script-print side cache what TestParseCacheResidencyWithinBudget
// does for the parse cache: each entry keeps its script, the joined
// statement texts and one StmtPrint per statement, and a full cache's
// live heap must stay within 1.1x its estimate. Each script is built
// fresh and dropped once fingerprinted, as a request's would be. Not
// parallel: it measures the whole process heap.
func TestScriptPrintResidencyWithinBudget(t *testing.T) {
	gh := corpus.GitHub(corpus.GitHubOptions{Repos: 3000, Seed: 29, MinStatements: 1, MaxStatements: 12})
	c := NewReportCache(0, 4<<20)
	before := liveHeap()
	for _, repo := range gh.Repos {
		if st := c.scripts.stats(); st.Bytes >= st.MaxBytes*9/10 {
			break
		}
		c.script(strings.Join(repo.Statements, ";\n"))
	}
	growth := liveHeap() - before
	runtime.KeepAlive(gh)
	st := c.scripts.stats()
	if st.Bytes < st.MaxBytes*9/10 {
		t.Fatalf("corpus filled %d of %d budget bytes; the test needs a full cache", st.Bytes, st.MaxBytes)
	}
	ratio := float64(growth) / float64(st.Bytes)
	t.Logf("live heap +%d bytes for %d script prints estimated at %d bytes: %.2fx", growth, st.Entries, st.Bytes, ratio)
	if ratio > 1.1 {
		t.Errorf("script-print cache retains %.2fx its estimated bytes, want <= 1.1x", ratio)
	}
}

// TestCacheBudgetOptions: NewEngine splits Options.CacheBytes 8:4:1:2
// among parsed statements, reports, script prints and table profiles,
// and <= 0 selects DefaultCacheBytes: 64, 32, 8 and 16 MiB.
func TestCacheBudgetOptions(t *testing.T) {
	for _, tc := range []struct {
		cacheBytes int64
		want       [4]int64 // parse, report, script, profile
	}{
		{0, [4]int64{64 << 20, 32 << 20, 8 << 20, 16 << 20}},
		{-1, [4]int64{64 << 20, 32 << 20, 8 << 20, 16 << 20}},
		{15 << 10, [4]int64{8 << 10, 4 << 10, 1 << 10, 2 << 10}},
	} {
		e := NewEngine(Options{CacheBytes: tc.cacheBytes}, 1)
		got := [4]int64{e.cache.Stats().MaxBytes, e.reports.Stats().MaxBytes, e.reports.scripts.stats().MaxBytes, e.profiles.Stats().MaxBytes}
		if got != tc.want {
			t.Errorf("CacheBytes %d: parse, report, script, profile budgets = %v, want %v", tc.cacheBytes, got, tc.want)
		}
	}
}
