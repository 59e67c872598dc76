package sqlcheck

import (
	"fmt"
	"testing"
)

// TestWritesSupersedeCachedVersions: a registered database that takes
// a write between every check keeps one memoized report for the
// workload and one memoized profile per table, at a flat estimated
// size. Each write's re-analysis replaces the version it invalidated
// instead of leaving it resident to age out of the LRU.
func TestWritesSupersedeCachedVersions(t *testing.T) {
	const rounds = 24
	db := NewDatabase("app")
	db.MustExec("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(32), age INT)")
	db.MustExec("CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, note VARCHAR(32))")
	for i := 0; i < 60; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'user%02d', %d)", i, i, 20+i%30))
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'a,b,c')", i, i%7))
	}
	reports, profiles := NewReportCache(0), NewProfileCache(0)
	checker := New(Options{ReportCache: reports, ProfileCache: profiles})
	if err := checker.RegisterDatabase("app", db); err != nil {
		t.Fatal(err)
	}
	w := Workload{SQL: "SELECT * FROM users WHERE name LIKE '%9'; SELECT id FROM orders WHERE user_id = 3", DBName: "app"}
	tables := len(db.Tables())

	checkOne(t, checker, w)
	first := reports.Stats()
	firstProfiles := profiles.Stats()
	if first.Entries != 1 || firstProfiles.Entries != tables {
		t.Fatalf("after the first check: %d reports and %d profiles, want 1 and %d",
			first.Entries, firstProfiles.Entries, tables)
	}
	for i := 0; i < rounds; i++ {
		// The name keeps its length, so each version's profile and
		// report estimate the same size.
		db.MustExec(fmt.Sprintf("UPDATE users SET name = 'name%02d' WHERE id = 1", i))
		checkOne(t, checker, w)
		rs, ps := reports.Stats(), profiles.Stats()
		if rs.Entries != 1 || ps.Entries != tables {
			t.Fatalf("round %d: %d reports and %d profiles resident, want 1 and %d", i, rs.Entries, ps.Entries, tables)
		}
		if rs.Bytes != first.Bytes || ps.Bytes != firstProfiles.Bytes {
			t.Fatalf("round %d: resident bytes moved: reports %d -> %d, profiles %d -> %d",
				i, first.Bytes, rs.Bytes, firstProfiles.Bytes, ps.Bytes)
		}
	}
	rs, ps := reports.Stats(), profiles.Stats()
	if rs.Superseded != rounds || ps.Superseded != rounds || rs.Evictions != 0 || ps.Evictions != 0 {
		t.Errorf("superseded reports %d, profiles %d, evictions %d and %d; want %d superseded each and no evictions",
			rs.Superseded, ps.Superseded, rs.Evictions, ps.Evictions, rounds)
	}
	if rs.VariantMisses != 0 {
		t.Errorf("variant misses = %d: an older version of the same texts is a plain miss", rs.VariantMisses)
	}
}
