package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqlcheck/internal/storage"
)

// newAppDB builds a small GlobaLeaks-shaped database used across the
// executor tests.
func newAppDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("app")
	mustRun := func(sql string) {
		if _, err := RunSQL(db, sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	mustRun("CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name VARCHAR(30), Role VARCHAR(5), Score INT)")
	mustRun("CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, Zone_ID VARCHAR(10), Active BOOLEAN, User_IDs TEXT)")
	mustRun("CREATE TABLE Hosting (User_ID VARCHAR(10) REFERENCES Users(User_ID) ON DELETE CASCADE, Tenant_ID VARCHAR(10) REFERENCES Tenants(Tenant_ID), PRIMARY KEY (User_ID, Tenant_ID))")
	mustRun("CREATE INDEX idx_host_user ON Hosting (User_ID)")
	mustRun("CREATE INDEX idx_host_tenant ON Hosting (Tenant_ID)")
	for i := 0; i < 40; i++ {
		mustRun(fmt.Sprintf("INSERT INTO Users (User_ID, Name, Role, Score) VALUES ('U%d', 'Name%d', 'R%d', %d)", i, i, i%3+1, i*10))
	}
	for i := 0; i < 10; i++ {
		userList := fmt.Sprintf("U%d,U%d,U%d", i, i+10, i+20)
		mustRun(fmt.Sprintf("INSERT INTO Tenants VALUES ('T%d', 'Z%d', TRUE, '%s')", i, i%3, userList))
	}
	for i := 0; i < 10; i++ {
		for _, u := range []int{i, i + 10, i + 20} {
			mustRun(fmt.Sprintf("INSERT INTO Hosting VALUES ('U%d', 'T%d')", u, i))
		}
	}
	return db
}

func q(t testing.TB, db *storage.Database, sql string) *Result {
	t.Helper()
	res, err := RunSQL(db, sql)
	if err != nil {
		t.Fatalf("RunSQL(%q): %v", sql, err)
	}
	return res
}

func TestSelectWherePK(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT Name FROM Users WHERE User_ID = 'U7'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Name7" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !hasPlan(res, "IndexScan") {
		t.Errorf("plan = %v, want IndexScan", res.Plan)
	}
}

func TestSelectSeqScanFilter(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT User_ID FROM Users WHERE Score > 350")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if !hasPlan(res, "SeqScan") {
		t.Errorf("plan = %v", res.Plan)
	}
}

func TestSelectStarProjection(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT * FROM Users WHERE User_ID = 'U1'")
	if len(res.Cols) != 4 || res.Cols[0] != "User_ID" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestSelectExpressionsOnly(t *testing.T) {
	db := storage.NewDatabase("x")
	res := q(t, db, "SELECT 1 + 2 AS three, 'a' || 'b'")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].S != "ab" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "three" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestLikeAndRegexpMatching(t *testing.T) {
	db := newAppDB(t)
	// The paper's Task #1: find tenants serving user U1 via LIKE with
	// word boundaries on the comma-separated list.
	res := q(t, db, `SELECT Tenant_ID FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]'`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "T1" {
		t.Fatalf("word-boundary rows = %v", res.Rows)
	}
	// Plain LIKE with %: U1 also matches U1x lists, hence the
	// anti-pattern's accuracy problem.
	res2 := q(t, db, "SELECT Tenant_ID FROM Tenants WHERE User_IDs LIKE '%U1%'")
	if len(res2.Rows) <= len(res.Rows) {
		t.Fatalf("plain LIKE rows = %d, want more than %d (false matches)", len(res2.Rows), len(res.Rows))
	}
}

func TestIndexJoinVsNestedLoop(t *testing.T) {
	db := newAppDB(t)
	// Indexed equi-join through the intersection table.
	res := q(t, db, `SELECT u.Name FROM Hosting h JOIN Users u ON u.User_ID = h.User_ID WHERE h.Tenant_ID = 'T3'`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if !hasPlan(res, "IndexJoin") {
		t.Errorf("plan = %v, want IndexJoin", res.Plan)
	}
	// Regex join (the MVA anti-pattern's Task #2) must still work, via
	// nested loop.
	res2 := q(t, db, `SELECT u.Name FROM Tenants t JOIN Users u ON t.User_IDs LIKE '%' || u.User_ID || '%' WHERE t.Tenant_ID = 'T3'`)
	if len(res2.Rows) < 3 {
		t.Fatalf("regex join rows = %d", len(res2.Rows))
	}
	if !hasPlan(res2, "NestedLoopJoin") {
		t.Errorf("plan = %v, want NestedLoopJoin", res2.Plan)
	}
}

func TestJoinUsing(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT h.Tenant_ID FROM Hosting h JOIN Users USING (User_ID) WHERE h.User_ID = 'U5'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateGlobal(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT COUNT(*), SUM(Score), AVG(Score), MIN(Score), MAX(Score) FROM Users")
	r := res.Rows[0]
	if r[0].I != 40 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].I != 7800 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].F != 195 {
		t.Errorf("avg = %v", r[2])
	}
	if r[3].I != 0 || r[4].I != 390 {
		t.Errorf("min/max = %v %v", r[3], r[4])
	}
}

func TestAggregateGroupByHaving(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT Role, COUNT(*) FROM Users GROUP BY Role HAVING COUNT(*) > 13 ORDER BY Role")
	// Roles R1 (14 users: i%3==0), R2 (13), R3 (13). Only R1 survives.
	if len(res.Rows) != 1 || res.Rows[0][0].S != "R1" || res.Rows[0][1].I != 14 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateCountDistinct(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT COUNT(DISTINCT Role) FROM Users")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("distinct roles = %v", res.Rows[0][0])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := storage.NewDatabase("x")
	q(t, db, "CREATE TABLE e (v INT)")
	res := q(t, db, "SELECT COUNT(*), SUM(v) FROM e")
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestStreamingAggregateUsesIndex(t *testing.T) {
	db := newAppDB(t)
	q(t, db, "CREATE INDEX idx_role ON Users (Role)")
	res := q(t, db, "SELECT Role, COUNT(*) FROM Users GROUP BY Role")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !hasPlan(res, "IndexStreamAgg") {
		t.Errorf("plan = %v, want IndexStreamAgg", res.Plan)
	}
	// Without index: hash aggregate.
	res2 := q(t, db, "SELECT Zone_ID, COUNT(*) FROM Tenants GROUP BY Zone_ID")
	if !hasPlan(res2, "HashAggregate") {
		t.Errorf("plan = %v, want HashAggregate", res2.Plan)
	}
	if len(res2.Rows) != 3 {
		t.Errorf("zones = %v", res2.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT DISTINCT Role FROM Users")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT User_ID, Score FROM Users ORDER BY Score DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][1].I != 390 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := q(t, db, "SELECT User_ID FROM Users ORDER BY User_ID LIMIT 2 OFFSET 1")
	if len(res2.Rows) != 2 || res2.Rows[0][0].S != "U1" {
		t.Fatalf("offset rows = %v", res2.Rows)
	}
	// ORDER BY ordinal.
	res3 := q(t, db, "SELECT User_ID, Score FROM Users ORDER BY 2 DESC LIMIT 1")
	if res3.Rows[0][1].I != 390 {
		t.Fatalf("ordinal order = %v", res3.Rows)
	}
}

func TestOrderByRandIsShuffle(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT User_ID FROM Users ORDER BY RAND() LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !hasPlan(res, "Shuffle") {
		t.Errorf("plan = %v", res.Plan)
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	db := newAppDB(t)
	r := q(t, db, "INSERT INTO Users (User_ID, Name, Role, Score) VALUES ('U100', 'New', 'R1', 5)")
	if r.Affected != 1 {
		t.Fatal("insert affected")
	}
	r = q(t, db, "UPDATE Users SET Score = Score + 1 WHERE User_ID = 'U100'")
	if r.Affected != 1 {
		t.Fatal("update affected")
	}
	res := q(t, db, "SELECT Score FROM Users WHERE User_ID = 'U100'")
	if res.Rows[0][0].I != 6 {
		t.Fatalf("score = %v", res.Rows[0][0])
	}
	r = q(t, db, "DELETE FROM Users WHERE User_ID = 'U100'")
	if r.Affected != 1 {
		t.Fatal("delete affected")
	}
	res = q(t, db, "SELECT COUNT(*) FROM Users WHERE User_ID = 'U100'")
	if res.Rows[0][0].I != 0 {
		t.Fatal("row still present")
	}
}

func TestInsertImplicitColumnsArity(t *testing.T) {
	db := newAppDB(t)
	// Implicit columns with right arity works (this is the AP).
	q(t, db, "INSERT INTO Tenants VALUES ('T99', 'Z9', FALSE, '')")
	// Wrong arity fails — the breakage the implicit-columns AP causes
	// after schema evolution.
	_, err := RunSQL(db, "INSERT INTO Tenants VALUES ('T98', 'Z9', FALSE)")
	if !errors.Is(err, storage.ErrArity) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteCascadesViaFK(t *testing.T) {
	db := newAppDB(t)
	before := q(t, db, "SELECT COUNT(*) FROM Hosting").Rows[0][0].I
	q(t, db, "DELETE FROM Users WHERE User_ID = 'U5'")
	after := q(t, db, "SELECT COUNT(*) FROM Hosting").Rows[0][0].I
	if after != before-1 {
		t.Fatalf("hosting rows %d -> %d", before, after)
	}
}

func TestFKViolationOnInsert(t *testing.T) {
	db := newAppDB(t)
	_, err := RunSQL(db, "INSERT INTO Hosting VALUES ('UNOSUCH', 'T1')")
	if !errors.Is(err, storage.ErrForeignKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestAlterCheckConstraintLifecycle(t *testing.T) {
	db := newAppDB(t)
	q(t, db, "ALTER TABLE Users ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R2','R3'))")
	_, err := RunSQL(db, "INSERT INTO Users (User_ID, Name, Role, Score) VALUES ('UX', 'x', 'R9', 1)")
	if !errors.Is(err, storage.ErrCheck) {
		t.Fatalf("check not enforced: %v", err)
	}
	// The paper's enum-update flow: drop, update, re-add.
	q(t, db, "ALTER TABLE Users DROP CONSTRAINT IF EXISTS User_Role_Check")
	r := q(t, db, "UPDATE Users SET Role = 'R5' WHERE Role = 'R2'")
	if r.Affected != 13 {
		t.Fatalf("updated = %d", r.Affected)
	}
	q(t, db, "ALTER TABLE Users ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R5','R3'))")
	// Re-adding with a domain the data violates fails.
	_, err = RunSQL(db, "ALTER TABLE Users ADD CONSTRAINT bad CHECK (Role IN ('R1'))")
	if !errors.Is(err, storage.ErrCheck) {
		t.Fatalf("validation err = %v", err)
	}
}

func TestAlterDropColumn(t *testing.T) {
	db := newAppDB(t)
	q(t, db, "ALTER TABLE Tenants DROP COLUMN User_IDs")
	res := q(t, db, "SELECT * FROM Tenants WHERE Tenant_ID = 'T1'")
	if len(res.Cols) != 3 {
		t.Fatalf("cols = %v", res.Cols)
	}
	// Table remains queryable by PK.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAlterAddColumn(t *testing.T) {
	db := newAppDB(t)
	q(t, db, "ALTER TABLE Users ADD COLUMN Bio TEXT DEFAULT 'n/a'")
	res := q(t, db, "SELECT Bio FROM Users WHERE User_ID = 'U1'")
	if res.Rows[0][0].S != "n/a" {
		t.Fatalf("bio = %v", res.Rows[0][0])
	}
	_, err := RunSQL(db, "ALTER TABLE Users ADD COLUMN Bio TEXT")
	if err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestCreateDropTableAndIndex(t *testing.T) {
	db := storage.NewDatabase("x")
	q(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	q(t, db, "CREATE INDEX ib ON t (b)")
	q(t, db, "DROP INDEX ib")
	if _, err := RunSQL(db, "DROP INDEX ib"); err == nil {
		t.Fatal("drop missing index accepted")
	}
	q(t, db, "DROP TABLE t")
	if _, err := RunSQL(db, "SELECT * FROM t"); err == nil {
		t.Fatal("query after drop accepted")
	}
	// IF NOT EXISTS tolerated.
	q(t, db, "CREATE TABLE t (a INT)")
	q(t, db, "CREATE TABLE IF NOT EXISTS t (a INT)")
}

func TestNullSemantics(t *testing.T) {
	db := storage.NewDatabase("x")
	q(t, db, "CREATE TABLE n (a INT, b TEXT)")
	q(t, db, "INSERT INTO n (a, b) VALUES (1, 'x')")
	q(t, db, "INSERT INTO n (a) VALUES (2)") // b NULL
	// NULL does not match equality — the NULL-usage trap.
	res := q(t, db, "SELECT a FROM n WHERE b = 'x'")
	if len(res.Rows) != 1 {
		t.Fatalf("eq rows = %v", res.Rows)
	}
	res = q(t, db, "SELECT a FROM n WHERE b <> 'x'")
	if len(res.Rows) != 0 {
		t.Fatalf("neq rows = %v (NULL must not match <>)", res.Rows)
	}
	res = q(t, db, "SELECT a FROM n WHERE b IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("is null rows = %v", res.Rows)
	}
	// Concatenating NULL erases the whole string (concatenate-nulls AP).
	res = q(t, db, "SELECT 'prefix-' || b FROM n WHERE a = 2")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("concat with NULL = %v, want NULL", res.Rows[0][0])
	}
	// COALESCE fix.
	res = q(t, db, "SELECT 'prefix-' || COALESCE(b, '') FROM n WHERE a = 2")
	if res.Rows[0][0].S != "prefix-" {
		t.Fatalf("coalesce = %v", res.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	db := storage.NewDatabase("x")
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT LOWER('AbC')", "abc"},
		{"SELECT UPPER('AbC')", "ABC"},
		{"SELECT LENGTH('abcd')", "4"},
		{"SELECT REPLACE('a,b,a', 'a', 'x')", "x,b,x"},
		{"SELECT SUBSTR('hello', 2, 3)", "ell"},
		{"SELECT CONCAT('a', 'b', 'c')", "abc"},
		{"SELECT ABS(-4)", "4"},
		{"SELECT COALESCE(NULL, NULL, 'z')", "z"},
		{"SELECT TRIM('  x  ')", "x"},
		{"SELECT CAST('42' AS INTEGER)", "42"},
	}
	for _, c := range cases {
		res := q(t, db, c.sql)
		if got := res.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT CASE WHEN Score > 200 THEN 'high' ELSE 'low' END FROM Users WHERE User_ID = 'U30'")
	if res.Rows[0][0].S != "high" {
		t.Fatalf("case = %v", res.Rows[0][0])
	}
}

func TestBetweenAndIn(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT COUNT(*) FROM Users WHERE Score BETWEEN 100 AND 150")
	if res.Rows[0][0].I != 6 {
		t.Fatalf("between = %v", res.Rows[0][0])
	}
	res = q(t, db, "SELECT COUNT(*) FROM Users WHERE Role IN ('R1', 'R2')")
	if res.Rows[0][0].I != 27 {
		t.Fatalf("in = %v", res.Rows[0][0])
	}
	res = q(t, db, "SELECT COUNT(*) FROM Users WHERE Role NOT IN ('R1', 'R2')")
	if res.Rows[0][0].I != 13 {
		t.Fatalf("not in = %v", res.Rows[0][0])
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	db := storage.NewDatabase("x")
	if _, err := RunSQL(db, "SELECT * FROM ghost"); err == nil {
		t.Error("unknown table accepted")
	}
	q(t, db, "CREATE TABLE t (a INT)")
	if _, err := RunSQL(db, "SELECT nope FROM t"); err == nil {
		// Zero rows: projection never runs; force a row.
		q(t, db, "INSERT INTO t (a) VALUES (1)")
		if _, err := RunSQL(db, "SELECT nope FROM t"); err == nil {
			t.Error("unknown column accepted")
		}
	}
	if _, err := RunSQL(db, "UPDATE t SET nope = 1"); err == nil {
		t.Error("unknown SET column accepted")
	}
}

func TestPlanNotes(t *testing.T) {
	db := newAppDB(t)
	res := q(t, db, "SELECT * FROM Users WHERE User_ID = 'U3'")
	joined := strings.Join(res.Plan, " ")
	if !strings.Contains(joined, "Users") {
		t.Errorf("plan = %v", res.Plan)
	}
}

func hasPlan(res *Result, op string) bool {
	for _, p := range res.Plan {
		if strings.HasPrefix(p, op) {
			return true
		}
	}
	return false
}

func BenchmarkIndexLookup(b *testing.B) {
	db := newAppDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSQL(db, "SELECT Name FROM Users WHERE User_ID = 'U7'"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqScanRegex(b *testing.B) {
	db := newAppDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSQL(db, "SELECT Tenant_ID FROM Tenants WHERE User_IDs LIKE '%U1%'"); err != nil {
			b.Fatal(err)
		}
	}
}
