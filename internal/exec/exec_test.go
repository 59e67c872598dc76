package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	// An aliased star names the columns whose values it selects.
	res = q(t, db, "SELECT u.* FROM Hosting h JOIN Users u ON u.User_ID = h.User_ID WHERE h.Tenant_ID = 'T1'")
	if len(res.Cols) != 4 || res.Cols[0] != "User_ID" || len(res.Rows) != 3 || len(res.Rows[0]) != 4 {
		t.Fatalf("u.*: cols = %v, rows = %v", res.Cols, res.Rows)
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
	// A grouped query walks the same indexed join.
	res3 := q(t, db, `SELECT h.Tenant_ID, COUNT(*) FROM Hosting h JOIN Users u ON u.User_ID = h.User_ID WHERE h.Tenant_ID = 'T3' GROUP BY h.Tenant_ID`)
	if len(res3.Rows) != 1 || res3.Rows[0][1].I != 3 {
		t.Fatalf("grouped join rows = %v, want [[T3 3]]", res3.Rows)
	}
	if !hasPlan(res3, "IndexJoin") {
		t.Errorf("grouped join plan = %v, want IndexJoin", res3.Plan)
	}
	// A join's access is noted once per statement, not once per probe.
	res4 := q(t, db, `SELECT u.Name FROM Hosting h JOIN Users u ON u.User_ID = h.User_ID`)
	if len(res4.Rows) != 30 {
		t.Fatalf("unfiltered join rows = %d, want 30", len(res4.Rows))
	}
	if want := []string{"SeqScan(Hosting)", "IndexJoin(Users.User_ID)"}; !slices.Equal(res4.Plan, want) {
		t.Errorf("unfiltered join plan = %v, want %v", res4.Plan, want)
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

// TestOrderBySortsRowsWithTheirKeys: ORDER BY returns rows in key
// order on a table whose values arrive shuffled, for plain, grouped,
// and descending-with-limit queries. Sorting rows by keys indexed by
// position, without moving the keys, scrambles the order after the
// first swap.
func TestOrderBySortsRowsWithTheirKeys(t *testing.T) {
	db := storage.NewDatabase("order")
	if _, err := RunSQL(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT, g INT)"); err != nil {
		t.Fatal(err)
	}
	for id, v := range rand.New(rand.NewSource(1)).Perm(26) {
		if _, err := RunSQL(db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", id, v, v)); err != nil {
			t.Fatal(err)
		}
	}
	asc := make([]int64, 26)
	for i := range asc {
		asc[i] = int64(i)
	}
	for _, tc := range []struct {
		name string
		sql  string
		want []int64
	}{
		{"plain", "SELECT v FROM t ORDER BY v", asc},
		{"grouped", "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g", asc},
		{"desc_limit", "SELECT v FROM t ORDER BY v DESC LIMIT 3", []int64{25, 24, 23}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := q(t, db, tc.sql)
			got := make([]int64, len(res.Rows))
			for i, row := range res.Rows {
				got[i] = row[0].I
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s = %v, want %v", tc.sql, got, tc.want)
			}
		})
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

// TestHavingMakesAQueryGrouped: HAVING without GROUP BY treats the
// rows as one group, as SQL does, so a bare column in it is an error
// and an aggregate filters the single group, instead of the clause
// being dropped.
func TestHavingMakesAQueryGrouped(t *testing.T) {
	db := storage.NewDatabase("having")
	q(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	q(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y')")
	if _, err := RunSQL(db, "SELECT a FROM t HAVING a > 100"); err == nil || !strings.Contains(err.Error(), "exec: column a not in GROUP BY") {
		t.Errorf("SELECT a FROM t HAVING a > 100: err = %v, want column a not in GROUP BY", err)
	}
	if res := q(t, db, "SELECT COUNT(*) FROM t HAVING COUNT(*) > 5"); len(res.Rows) != 0 {
		t.Errorf("HAVING COUNT(*) > 5 kept %v", res.Rows)
	}
}

// TestOrderAndBoundsAreNeverDropped: a grouped query sorts and
// paginates as a plain one does, and an ORDER BY term, LIMIT or
// OFFSET that does not evaluate fails the statement instead of being
// skipped, on an empty table too; a bound naming a column is not
// evaluated against whichever row the scan bound last.
func TestOrderAndBoundsAreNeverDropped(t *testing.T) {
	db := storage.NewDatabase("order")
	q(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	q(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y')")
	fails := func(t *testing.T, sql string) {
		t.Helper()
		if res, err := RunSQL(db, sql); err == nil {
			t.Errorf("%s = %v, want an error", sql, res.Rows)
		}
	}
	t.Run("grouped_unknown_order", func(t *testing.T) {
		fails(t, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY nope")
	})
	t.Run("grouped_order_by_aggregate", func(t *testing.T) {
		res := q(t, db, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY COUNT(*) DESC")
		if got := fmt.Sprint(res.Rows); got != "[[y 2] [x 1]]" {
			t.Errorf("rows = %s, want [[y 2] [x 1]]", got)
		}
	})
	t.Run("grouped_order_by_rand", func(t *testing.T) {
		if res := q(t, db, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY RAND()"); !hasPlan(res, "Shuffle") {
			t.Errorf("plan = %v, want a Shuffle", res.Plan)
		}
	})
	t.Run("unknown_limit", func(t *testing.T) {
		fails(t, "SELECT a FROM t LIMIT nope")
	})
	t.Run("unknown_offset", func(t *testing.T) {
		fails(t, "SELECT a FROM t ORDER BY a OFFSET nope")
	})
	t.Run("column_limit", func(t *testing.T) {
		fails(t, "SELECT a FROM t LIMIT b")
	})
	t.Run("empty_grouped_unknown_order", func(t *testing.T) {
		q(t, db, "CREATE TABLE e (a INT PRIMARY KEY, b TEXT)")
		fails(t, "SELECT b, COUNT(*) FROM e GROUP BY b ORDER BY nope")
	})
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
	// Constraints on a dropped column go; all others stay.
	q(t, db, "CREATE TABLE Seats (Seat_ID INT PRIMARY KEY, User_ID VARCHAR(10) REFERENCES Users(User_ID), Tenant_ID VARCHAR(10) REFERENCES Tenants(Tenant_ID), Tier VARCHAR(2), Zone VARCHAR(2))")
	q(t, db, "CREATE INDEX idx_seat_user ON Seats (User_ID)")
	q(t, db, "CREATE INDEX idx_seat_tenant ON Seats (Tenant_ID)")
	q(t, db, "ALTER TABLE Seats ADD CONSTRAINT seat_tier CHECK (Tier IN ('A','B'))")
	q(t, db, "ALTER TABLE Seats ADD CONSTRAINT seat_zone CHECK (Zone IN ('Z0'))")
	q(t, db, "INSERT INTO Seats VALUES (1, 'U1', 'T1', 'A', 'Z0')")
	q(t, db, "ALTER TABLE Seats DROP COLUMN Tenant_ID")
	q(t, db, "ALTER TABLE Seats DROP COLUMN Zone")
	seats := db.Table("Seats")
	if len(seats.PrimaryKey()) != 1 || len(seats.Indexes()) != 1 || len(seats.ForeignKeys()) != 1 || len(seats.Checks()) != 1 {
		t.Errorf("after the drops Seats has pk %v, %d indexes, %d FKs, %d CHECKs; want the pk and one of each",
			seats.PrimaryKey(), len(seats.Indexes()), len(seats.ForeignKeys()), len(seats.Checks()))
	}
	for _, tc := range []struct {
		sql  string
		want error
	}{
		{"INSERT INTO Seats VALUES (1, 'U2', 'B')", storage.ErrDuplicateKey},
		{"INSERT INTO Seats VALUES (2, 'UNOSUCH', 'B')", storage.ErrForeignKey},
		{"INSERT INTO Seats VALUES (2, 'U2', 'C')", storage.ErrCheck},
	} {
		if _, err := RunSQL(db, tc.sql); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.sql, err, tc.want)
		}
	}
	q(t, db, "INSERT INTO Seats VALUES (2, 'U2', 'B')")
}

func TestAlterAddColumn(t *testing.T) {
	db := newAppDB(t)
	q(t, db, "ALTER TABLE Users ADD CONSTRAINT role_check CHECK (Role IN ('R1','R2','R3'))")
	q(t, db, "ALTER TABLE Users ADD COLUMN Bio TEXT DEFAULT 'n/a'")
	res := q(t, db, "SELECT Bio FROM Users WHERE User_ID = 'U1'")
	if res.Rows[0][0].S != "n/a" {
		t.Fatalf("bio = %v", res.Rows[0][0])
	}
	_, err := RunSQL(db, "ALTER TABLE Users ADD COLUMN Bio TEXT")
	if err == nil {
		t.Fatal("duplicate column accepted")
	}
	// The rebuilt tables keep their foreign keys and CHECKs.
	q(t, db, "ALTER TABLE Hosting ADD COLUMN Note TEXT")
	if _, err := RunSQL(db, "INSERT INTO Hosting VALUES ('UNOSUCH', 'T1', NULL)"); !errors.Is(err, storage.ErrForeignKey) {
		t.Errorf("dangling parent after ADD COLUMN: err = %v, want %v", err, storage.ErrForeignKey)
	}
	if _, err := RunSQL(db, "INSERT INTO Users (User_ID, Name, Role, Score) VALUES ('UX', 'x', 'R9', 1)"); !errors.Is(err, storage.ErrCheck) {
		t.Errorf("role outside the CHECK after ADD COLUMN: err = %v, want %v", err, storage.ErrCheck)
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
	q(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	// Column references resolve when the statement is planned, so an
	// empty table, which no clause ever evaluates a row of, still
	// rejects an unknown column.
	unknown := func(sql string) {
		t.Helper()
		if _, err := RunSQL(db, sql); err == nil || !strings.Contains(err.Error(), "exec: unknown column") {
			t.Errorf("%s: err = %v, want an unknown column", sql, err)
		}
	}
	for _, sql := range []string{
		"SELECT nope FROM t",
		"SELECT a FROM t WHERE nope = 1",
		"SELECT a FROM t ORDER BY nope",
		"SELECT a, COUNT(*) FROM t GROUP BY nope",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING nope > 1",
		"SELECT t.a FROM t JOIN t AS u ON u.nope = t.a",
		"UPDATE t SET b = 'x' WHERE nope = 1",
		"UPDATE t SET b = nope",
		"DELETE FROM t WHERE nope = 1",
		"UPDATE t SET nope = 1",
	} {
		unknown(sql)
	}
	// Select-list aliases and ordinals stay valid.
	for _, sql := range []string{
		"SELECT a AS k FROM t ORDER BY k",
		"SELECT a, b FROM t ORDER BY 2",
		"SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY n",
	} {
		q(t, db, sql)
	}
	// A point access leaves no row for the rest of the WHERE to read.
	q(t, db, "INSERT INTO t (a, b) VALUES (1, 'x')")
	unknown("SELECT a FROM t WHERE a = 2 AND nope = 1")
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
