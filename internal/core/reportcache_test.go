package core

import (
	"fmt"
	"maps"
	"testing"

	"sqlcheck/internal/sqltoken"
)

func reportTestKey(fp uint64) reportKey {
	return reportKey{fp: sqltoken.Fingerprint{Lo: fp}, rules: "all"}
}

// TestReportCacheVariantBound: a fingerprint key holds at most
// reportMaxVariants resident text variants, however much budget is
// left; a declined variant misses as a variant miss.
func TestReportCacheVariantBound(t *testing.T) {
	c := NewReportCache(1 << 20)
	key := reportTestKey(1)
	for i := 0; i < 2*reportMaxVariants; i++ {
		c.add(key, fmt.Sprintf("SELECT %d", i), i, lruCost)
	}
	if st := c.Stats(); st.Entries != reportMaxVariants || st.Fingerprints != 1 {
		t.Fatalf("stats = %+v, want %d entries under 1 fingerprint", st, reportMaxVariants)
	}
	for i := 0; i < reportMaxVariants; i++ {
		if _, ok := c.lookup(key, fmt.Sprintf("SELECT %d", i)); !ok {
			t.Errorf("resident variant %d missed", i)
		}
	}
	if _, ok := c.lookup(key, fmt.Sprintf("SELECT %d", reportMaxVariants)); ok {
		t.Fatal("variant past the bound was admitted")
	}
	if st := c.Stats(); st.VariantMisses != 1 {
		t.Errorf("variant misses = %d, want 1", st.VariantMisses)
	}
}

// TestReportCacheEvictionReleasesCounts: evicting a key's entries
// returns its variant and fingerprint counts to zero, through the
// core's eviction callback, so a key whose variant bucket was full
// admits again.
func TestReportCacheEvictionReleasesCounts(t *testing.T) {
	c := NewReportCache(reportMaxVariants * lruCost)
	full, big := reportTestKey(1), reportTestKey(2)
	for i := 0; i < reportMaxVariants; i++ {
		c.add(full, fmt.Sprintf("v%d", i), i, lruCost)
	}
	counts := func() (map[reportKey]int, map[sqltoken.Fingerprint]int) {
		c.reports.mu.Lock()
		defer c.reports.mu.Unlock()
		return maps.Clone(c.variants), maps.Clone(c.prints)
	}

	c.add(full, "fresh", 0, lruCost)
	if _, ok := c.lookup(full, "fresh"); ok {
		t.Fatal("variant past the bound was admitted")
	}
	// One entry costing the whole budget evicts every variant on its
	// repeated miss.
	c.add(big, "big", 0, reportMaxVariants*lruCost)
	c.add(big, "big", 0, reportMaxVariants*lruCost)
	variants, prints := counts()
	if len(variants) != 1 || variants[big] != 1 || len(prints) != 1 || prints[big.fp] != 1 {
		t.Fatalf("after evicting every variant: variants %v prints %v, want only the big entry", variants, prints)
	}
	if st := c.Stats(); st.Entries != 1 || st.Fingerprints != 1 || st.Evictions != reportMaxVariants {
		t.Fatalf("stats = %+v, want 1 entry, 1 fingerprint, %d evictions", st, reportMaxVariants)
	}

	// The cache is full, so the freed key admits on its repeated miss,
	// and evicting the big entry drops its counts to zero too.
	c.add(full, "fresh", 0, lruCost)
	c.add(full, "fresh", 0, lruCost)
	if _, ok := c.lookup(full, "fresh"); !ok {
		t.Fatal("key with a freed variant bucket was not admitted")
	}
	variants, prints = counts()
	if len(variants) != 1 || variants[full] != 1 || len(prints) != 1 || prints[full.fp] != 1 {
		t.Errorf("after evicting the big entry: variants %v prints %v, want only the fresh variant", variants, prints)
	}
}

// TestReportCacheScriptPrintBudget: the script-print side cache stays
// within a quarter of the report budget under repeated misses.
func TestReportCacheScriptPrintBudget(t *testing.T) {
	const budget = 64 << 10
	c := NewReportCache(budget)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 200; i++ {
			sql := fmt.Sprintf("SELECT c%d FROM t%d WHERE id = %d; SELECT 1", i, i, i)
			if _, texts := c.script(sql); texts != fmt.Sprintf("SELECT c%d FROM t%d WHERE id = %d\x00SELECT 1", i, i, i) {
				t.Fatalf("texts = %q", texts)
			}
		}
	}
	st := c.scripts.stats()
	if st.MaxBytes != budget/scriptCacheDivisor {
		t.Errorf("script budget = %d, want %d", st.MaxBytes, budget/scriptCacheDivisor)
	}
	if st.Bytes > st.MaxBytes || st.Evictions == 0 {
		t.Errorf("stats = %+v, want evictions and bytes within the budget", st)
	}
}
