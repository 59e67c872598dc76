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
	c := NewReportCache(1<<20, 0)
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
// admits again. An entry costs its report plus its texts, so the
// budget holds exactly the full bucket of two-byte variants.
func TestReportCacheEvictionReleasesCounts(t *testing.T) {
	const budget = reportMaxVariants * (lruCost + 2)
	c := NewReportCache(budget, 0)
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
	c.add(big, "big", 0, budget-3)
	c.add(big, "big", 0, budget-3)
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
// within its own budget under repeated misses.
func TestReportCacheScriptPrintBudget(t *testing.T) {
	const budget = 16 << 10
	c := NewReportCache(1<<20, budget)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 200; i++ {
			sql := fmt.Sprintf("SELECT c%d FROM t%d WHERE id = %d; SELECT 1", i, i, i)
			if _, texts := c.script(sql); texts != fmt.Sprintf("SELECT c%d FROM t%d WHERE id = %d\x00SELECT 1", i, i, i) {
				t.Fatalf("texts = %q", texts)
			}
		}
	}
	st := c.scripts.stats()
	if st.MaxBytes != budget {
		t.Errorf("script budget = %d, want %d", st.MaxBytes, budget)
	}
	if st.Bytes > st.MaxBytes || st.Evictions == 0 {
		t.Errorf("stats = %+v, want evictions and bytes within the budget", st)
	}
}

// TestReportCacheSupersedesOlderVersion: a report stored at a newer
// database version replaces the one for the same texts in place, with
// the variant and fingerprint counts moved to the new version; a
// lookup that finds only an older version of the same texts is a
// plain miss, not a variant miss; and a late store from an older
// snapshot is declined.
func TestReportCacheSupersedesOlderVersion(t *testing.T) {
	c := NewReportCache(1<<20, 0)
	at := func(ver uint64) reportKey {
		k := reportTestKey(1)
		k.dbID, k.dbVersion = 7, ver
		return k
	}
	counts := func() (map[reportKey]int, map[sqltoken.Fingerprint]int) {
		c.reports.mu.Lock()
		defer c.reports.mu.Unlock()
		return maps.Clone(c.variants), maps.Clone(c.prints)
	}
	const texts = "SELECT * FROM t"
	c.add(at(1), texts, "v1", lruCost)

	if _, ok := c.lookup(at(2), texts); ok {
		t.Fatal("lookup at version 2 hit the version-1 report")
	}
	if st := c.Stats(); st.VariantMisses != 0 {
		t.Fatalf("older version of the same texts counted as a variant miss: %+v", st)
	}

	c.add(at(2), texts, "v2", lruCost)
	if p, ok := c.lookup(at(2), texts); !ok || p != "v2" {
		t.Fatalf("lookup at version 2 = %v, %v; want the version-2 report", p, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != lruCost+int64(len(texts)) || st.Superseded != 1 || st.Evictions != 0 || st.Fingerprints != 1 {
		t.Fatalf("stats = %+v, want 1 entry superseded once, nothing evicted", st)
	}
	variants, prints := counts()
	if len(variants) != 1 || variants[at(2)] != 1 || len(prints) != 1 || prints[at(2).fp] != 1 {
		t.Fatalf("counts after supersede: variants %v prints %v, want one entry at version 2", variants, prints)
	}

	// The old snapshot misses now, and its late store cannot displace
	// the newer report.
	if _, ok := c.lookup(at(1), texts); ok {
		t.Fatal("old snapshot hit after the newer version was stored")
	}
	c.add(at(1), texts, "v1 again", lruCost)
	if p, ok := c.lookup(at(2), texts); !ok || p != "v2" {
		t.Fatalf("older store displaced the newer report: %v, %v", p, ok)
	}

	// A different text at the current version is still a variant miss.
	if _, ok := c.lookup(at(2), "SELECT * FROM t WHERE id = 1"); ok {
		t.Fatal("different texts hit")
	}
	if st := c.Stats(); st.VariantMisses != 1 {
		t.Errorf("variant misses = %d, want 1 (only the different texts)", st.VariantMisses)
	}
}
