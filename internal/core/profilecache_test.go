package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sqlcheck/internal/profile"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

func profTable(name string, rows int) *storage.Table {
	t := storage.NewTable(name, []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "city", Class: schema.ClassChar},
	})
	for i := 0; i < rows; i++ {
		t.MustInsert(storage.Int(int64(i)), storage.Str(fmt.Sprintf("C%d", i%5)))
	}
	return t
}

func TestProfileCacheHitMissAndNormalizedKey(t *testing.T) {
	c := NewProfileCache(1 << 20)
	tab := profTable("t", 40)
	opts := profile.Options{}

	if _, ok := c.Lookup(tab, opts); ok {
		t.Fatal("hit on empty cache")
	}
	tp := profile.ProfileTable(tab, opts)
	c.Add(tab, opts, tp)
	got, ok := c.Lookup(tab, opts)
	if !ok || got != tp {
		t.Fatalf("lookup after add: ok=%v got=%p want=%p", ok, got, tp)
	}
	// Zero options and explicitly-default options share the entry.
	if _, ok := c.Lookup(tab, profile.Options{}.Normalized()); !ok {
		t.Error("normalized-equal options missed")
	}
	// Different options are a different key.
	if _, ok := c.Lookup(tab, profile.Options{SampleSize: 7}); ok {
		t.Error("different sample size hit the default entry")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes <= 0 || st.Bytes != tp.MemSize() {
		t.Errorf("stats = %+v, want 1 entry costing MemSize=%d", st, tp.MemSize())
	}
}

func TestProfileCacheVersionInvalidation(t *testing.T) {
	c := NewProfileCache(1 << 20)
	tab := profTable("t", 40)
	opts := profile.Options{}
	c.Add(tab, opts, profile.ProfileTable(tab, opts))

	// A snapshot at the same version hits; DML moves the live table's
	// key so it misses, while the old snapshot still hits.
	snap := tab.Snapshot()
	if _, ok := c.Lookup(snap, opts); !ok {
		t.Fatal("same-version snapshot missed")
	}
	tab.MustInsert(storage.Int(1000), storage.Str("new"))
	if _, ok := c.Lookup(tab, opts); ok {
		t.Fatal("mutated table hit the stale entry")
	}
	if _, ok := c.Lookup(snap, opts); !ok {
		t.Fatal("frozen snapshot lost its entry after source DML")
	}

	// Profiling the new version supersedes the old entry: the live
	// table hits, the old snapshot misses, and one profile stays
	// resident.
	c.Add(tab, opts, profile.ProfileTable(tab, opts))
	if _, ok := c.Lookup(tab, opts); !ok {
		t.Fatal("mutated table missed after its new profile was stored")
	}
	if _, ok := c.Lookup(snap, opts); ok {
		t.Fatal("old snapshot hit after the newer version was stored")
	}
	if st := c.Stats(); st.Entries != 1 || st.Superseded != 1 {
		t.Fatalf("stats = %+v, want 1 resident profile, superseded once", st)
	}

	// A distinct table that happens to share name and row count is a
	// different identity.
	other := profTable("t", 40)
	if _, ok := c.Lookup(other, opts); ok {
		t.Fatal("distinct table with equal shape hit another table's entry")
	}
}

func TestProfileCacheEvictionAndDoorkeeper(t *testing.T) {
	tab := profTable("t", 10)
	tp := profile.ProfileTable(tab, profile.Options{})
	// Budget for roughly three resident profiles.
	c := NewProfileCache(3 * tp.MemSize())

	tabs := make([]*storage.Table, 8)
	for i := range tabs {
		tabs[i] = profTable(fmt.Sprintf("t%d", i), 10)
		c.Add(tabs[i], profile.Options{}, profile.ProfileTable(tabs[i], profile.Options{}))
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
	if st.Entries == 0 || st.Entries > 3 {
		t.Fatalf("entries = %d, want 1..3 under a 3-profile budget", st.Entries)
	}
	// One-shot additions beyond capacity were noted, not admitted; a
	// repeated miss is admitted and may evict.
	victim := tabs[len(tabs)-1]
	c.Add(victim, profile.Options{}, profile.ProfileTable(victim, profile.Options{}))
	if _, ok := c.Lookup(victim, profile.Options{}); !ok {
		t.Error("repeated add of the same key was not admitted")
	}
}

// TestEngineProfileMemoization is the warm-path contract: repeated
// batches against the same registered database profile its tables
// once, later batches hit the cache per table, reports stay
// byte-identical, and DML on the live handle invalidates exactly the
// mutated table.
func TestEngineProfileMemoization(t *testing.T) {
	db := workloadDB(0)
	eng := NewEngine(DefaultOptions(), 2)
	if err := eng.Registry().Register("app", db); err != nil {
		t.Fatal(err)
	}
	ws := []Workload{{SQL: `SELECT label FROM tenants WHERE user_ids LIKE '%U3%'`, DBName: "app"}}

	cold, err := eng.DetectWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	assertNoOpenFlights(t, eng)
	coldStats := eng.Metrics().ProfileCache
	if coldStats.Hits != 0 || coldStats.Misses == 0 {
		t.Fatalf("cold run: stats = %+v, want misses only", coldStats)
	}
	tables := int64(len(db.Tables()))

	warm, err := eng.DetectWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	assertNoOpenFlights(t, eng)
	warmStats := eng.Metrics().ProfileCache
	if warmStats.Hits != tables {
		t.Fatalf("warm run: hits = %d, want %d (one per table)", warmStats.Hits, tables)
	}
	if warmStats.Misses != coldStats.Misses {
		t.Fatalf("warm run re-profiled: misses %d -> %d", coldStats.Misses, warmStats.Misses)
	}
	if !reflect.DeepEqual(cold[0].Findings, warm[0].Findings) {
		t.Fatal("warm report differs from cold report")
	}
	for name, tp := range cold[0].Context.Profiles {
		if warm[0].Context.Profiles[name] != tp {
			t.Errorf("table %s: warm profile is not the memoized object", name)
		}
	}

	// DML on one table invalidates that table only: the next batch
	// re-profiles it and still hits on the untouched tables.
	db.Table("tenants").MustInsert(storage.Int(999), storage.Str("U9,U10"), storage.Str("L9"))
	after, err := eng.DetectWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	assertNoOpenFlights(t, eng)
	afterStats := eng.Metrics().ProfileCache
	if afterStats.Misses != warmStats.Misses+1 {
		t.Errorf("post-DML misses = %d, want exactly one new (the mutated table); was %d",
			afterStats.Misses, warmStats.Misses)
	}
	if afterStats.Hits != warmStats.Hits+tables-1 {
		t.Errorf("post-DML hits = %d, want %d (every untouched table)",
			afterStats.Hits, warmStats.Hits+tables-1)
	}
	// The default sample holds every row of the 60-row table.
	if after[0].Context.Profiles["tenants"].RowsSampled != 61 {
		t.Errorf("post-DML profile not refreshed: RowsSampled = %d, want 61",
			after[0].Context.Profiles["tenants"].RowsSampled)
	}
}

// TestEngineProfileMemoizationRespectsOptions: per-workload profile
// overrides key separately, so an override neither corrupts nor is
// served from the default-options entry.
func TestEngineProfileMemoizationRespectsOptions(t *testing.T) {
	db := workloadDB(0)
	eng := NewEngine(DefaultOptions(), 2)
	small := profile.Options{SampleSize: 10}
	ws := []Workload{
		{SQL: `SELECT label FROM tenants`, DB: db},
		{SQL: `SELECT label FROM tenants`, DB: db, Profile: &small},
	}
	for pass := 0; pass < 2; pass++ {
		got, err := eng.DetectWorkloads(context.Background(), ws)
		if err != nil {
			t.Fatal(err)
		}
		if n := got[0].Context.Profiles["tenants"].RowsSampled; n != 60 {
			t.Errorf("pass %d: default workload sampled %d, want 60", pass, n)
		}
		if n := got[1].Context.Profiles["tenants"].RowsSampled; n != 10 {
			t.Errorf("pass %d: overridden workload sampled %d, want 10", pass, n)
		}
	}
}
