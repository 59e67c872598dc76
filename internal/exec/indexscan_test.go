package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqlcheck/internal/storage"
)

// The index-versus-scan differential: one seeded statement stream runs
// against a table whose columns are all indexed and against an
// unindexed copy of it, and every result, affected count and table
// state must agree. Columns i, f and s each hold one kind (and NULL);
// column m mixes integers, floats, numeric and other text, and NULL.

var diffCols = []string{"id", "i", "f", "s", "m"}

// sqlValue renders v as a SQL expression that evaluates back to v.
func sqlValue(v storage.Value) string {
	switch v.Kind {
	case storage.KindInt:
		return strconv.FormatInt(v.I, 10)
	case storage.KindFloat:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case storage.KindString:
		return "'" + v.S + "'"
	default:
		return "NULL"
	}
}

// diffValue draws a value for column col; kinds other than the
// column's own appear only in m.
func diffValue(r *rand.Rand, col string) storage.Value {
	if col != "id" && r.Intn(8) == 0 {
		return storage.Null()
	}
	switch col {
	case "i":
		return storage.Int(int64(r.Intn(40) - 10))
	case "f":
		return storage.Float(float64(r.Intn(60)-10) / 2)
	case "s":
		if r.Intn(6) == 0 {
			return storage.Str(string(rune('a' + r.Intn(3))))
		}
		return storage.Str(strconv.Itoa(r.Intn(30)))
	default:
		return diffValue(r, []string{"i", "f", "s"}[r.Intn(3)])
	}
}

// diffLiteral draws a comparison literal of any kind. Negative
// numbers parse as unary minus, not literals, so they stay out.
func diffLiteral(r *rand.Rand) string {
	switch r.Intn(3) {
	case 0:
		return strconv.Itoa(r.Intn(35))
	case 1:
		return sqlValue(storage.Float(float64(r.Intn(60)) / 2))
	default:
		return "'" + strconv.Itoa(r.Intn(30)) + "'"
	}
}

func diffPredicate(r *rand.Rand) string {
	col := diffCols[r.Intn(len(diffCols))]
	op := []string{"=", "<", "<=", ">", ">="}[r.Intn(5)]
	lit := diffLiteral(r)
	if r.Intn(2) == 0 {
		return fmt.Sprintf("%s %s %s", lit, op, col)
	}
	return fmt.Sprintf("%s %s %s", col, op, lit)
}

// rendered returns a result's rows as sorted strings that keep each
// value's kind, so two results compare as multisets.
func rendered(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.Kind, v.String())
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

func TestIndexAccessMatchesScan(t *testing.T) { indexAccessMatchesScan(t, 41) }

func FuzzIndexAccessMatchesScan(f *testing.F) {
	f.Add(int64(41))
	f.Fuzz(indexAccessMatchesScan)
}

// indexAccessMatchesScan runs the differential over the statement
// stream seed draws.
func indexAccessMatchesScan(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	indexed, plain := storage.NewDatabase("indexed"), storage.NewDatabase("plain")
	run := func(db *storage.Database, sql string) *Result {
		t.Helper()
		res, err := RunSQL(db, sql)
		if err != nil {
			t.Fatalf("%s: %q: %v", db.Name, sql, err)
		}
		return res
	}
	both := func(sql string) (*Result, *Result) {
		t.Helper()
		return run(indexed, sql), run(plain, sql)
	}
	run(indexed, "CREATE TABLE t (id INT PRIMARY KEY, i INT, f REAL, s TEXT, m TEXT)")
	run(plain, "CREATE TABLE t (id INT, i INT, f REAL, s TEXT, m TEXT)")
	run(indexed, "CREATE TABLE u (uid INT PRIMARY KEY, k TEXT)")
	run(plain, "CREATE TABLE u (uid INT, k TEXT)")
	for _, c := range []string{"i", "f", "s", "m"} {
		run(indexed, fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", c, c))
	}
	run(indexed, "CREATE INDEX u_k ON u (k)")

	nextID := 0
	insert := func() {
		vals := []string{strconv.Itoa(nextID)}
		for _, c := range diffCols[1:] {
			vals = append(vals, sqlValue(diffValue(r, c)))
		}
		nextID++
		both("INSERT INTO t VALUES (" + strings.Join(vals, ", ") + ")")
	}
	for range 60 {
		insert()
	}
	for uid := range 30 {
		both(fmt.Sprintf("INSERT INTO u VALUES (%d, %s)", uid, sqlValue(diffValue(r, "m"))))
	}

	sameTable := func(after string) {
		t.Helper()
		a, b := both("SELECT * FROM t")
		if !slices.Equal(rendered(a), rendered(b)) {
			t.Fatalf("after %q the indexed table holds\n%v\nthe unindexed copy\n%v", after, rendered(a), rendered(b))
		}
	}
	var usedIndex, streamed bool
	for range 600 {
		var sql string
		switch n := r.Intn(11); {
		case n < 5:
			sql = "SELECT id, i, f, s, m FROM t WHERE " + diffPredicate(r)
		case n < 7:
			col := diffCols[1+r.Intn(len(diffCols)-1)]
			sql = fmt.Sprintf("UPDATE t SET %s = %s WHERE %s", col, sqlValue(diffValue(r, col)), diffPredicate(r))
		case n < 8:
			sql = "DELETE FROM t WHERE " + diffPredicate(r)
		case n < 9:
			col := diffCols[r.Intn(len(diffCols))]
			sql = fmt.Sprintf("SELECT t.id AS tid, u.uid AS uid FROM t JOIN u ON u.k = t.%s", col)
		case n < 10:
			col := diffCols[r.Intn(len(diffCols))]
			sql = fmt.Sprintf("SELECT COUNT(*) FROM t JOIN u ON t.%s = u.k WHERE %s", col, diffPredicate(r))
		default:
			// Without a WHERE the indexed side streams its groups off
			// the column's index; the unindexed copy hash-aggregates.
			col, where := diffCols[r.Intn(len(diffCols))], ""
			if r.Intn(2) == 0 {
				where = " WHERE " + diffPredicate(r)
			}
			sql = fmt.Sprintf("SELECT %s, COUNT(*) FROM t%s GROUP BY %s", col, where, col)
		}
		a, b := both(sql)
		for _, p := range a.Plan {
			usedIndex = usedIndex || strings.HasPrefix(p, "Index")
			streamed = streamed || strings.HasPrefix(p, "IndexStreamAgg")
		}
		if a.Affected != b.Affected || !slices.Equal(rendered(a), rendered(b)) {
			t.Fatalf("%q (plan %v):\nindexed  %d affected, rows %v\nunindexed %d affected, rows %v",
				sql, a.Plan, a.Affected, rendered(a), b.Affected, rendered(b))
		}
		if !strings.HasPrefix(sql, "SELECT") {
			sameTable(sql)
		}
		for indexed.Table("t").Len() < 40 {
			insert()
		}
	}
	if !usedIndex {
		t.Fatal("no statement used an index: the differential compared scans with scans")
	}
	if !streamed {
		t.Fatal("no grouped statement streamed off an index")
	}
}

// TestIndexRangeExamples pins single-kind range queries over indexed
// columns of 30 rows: the access path is the index when the literal
// has the column's kind, a scan otherwise, and either way the rows are
// the scan's.
func TestIndexRangeExamples(t *testing.T) {
	db := storage.NewDatabase("ranges")
	mustSQL := func(s string) *Result {
		t.Helper()
		res, err := RunSQL(db, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return res
	}
	mustSQL("CREATE TABLE t (id INT PRIMARY KEY, x REAL, s TEXT, v INT)")
	mustSQL("CREATE INDEX t_x ON t (x)")
	mustSQL("CREATE INDEX t_s ON t (s)")
	for i := range 30 {
		mustSQL(fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5, '%d', 0)", i, i, i))
	}
	for _, tc := range []struct {
		sql   string
		want  int
		index bool
	}{
		{"SELECT id FROM t WHERE id > 8", 21, true},
		{"SELECT id FROM t WHERE 8 < id", 21, true},
		{"SELECT id FROM t WHERE id <= 8", 9, true},
		{"SELECT id FROM t WHERE x > 8.5", 21, true},
		{"SELECT id FROM t WHERE x < 12", 12, false},
		{"SELECT id FROM t WHERE x >= 12.0", 18, true},
		{"SELECT id FROM t WHERE s < 5", 5, false},
		{"SELECT id FROM t WHERE s < '5'", 25, true},
		{"SELECT id FROM t WHERE s = 7", 1, false},
	} {
		res := mustSQL(tc.sql)
		if len(res.Rows) != tc.want {
			t.Errorf("%s: %d rows, want %d (plan %v)", tc.sql, len(res.Rows), tc.want, res.Plan)
		}
		if hasPlan(res, "Index") != tc.index {
			t.Errorf("%s: plan %v, index access %v", tc.sql, res.Plan, tc.index)
		}
	}
	if upd := mustSQL("UPDATE t SET v = -1 WHERE id > 8"); upd.Affected != 21 {
		t.Errorf("UPDATE ... WHERE id > 8 changed %d rows, want 21", upd.Affected)
	}
	if del := mustSQL("DELETE FROM t WHERE x <= 3.5"); del.Affected != 4 {
		t.Errorf("DELETE ... WHERE x <= 3.5 removed %d rows, want 4", del.Affected)
	}
	// x = NULL is never true; the NULL key must not answer it.
	mustSQL("CREATE TABLE n (id INT, x INT)")
	mustSQL("CREATE INDEX n_x ON n (x)")
	mustSQL("INSERT INTO n VALUES (1, NULL), (2, 5)")
	if res := mustSQL("SELECT id FROM n WHERE x = NULL"); len(res.Rows) != 0 || hasPlan(res, "Index") {
		t.Errorf("x = NULL: rows %v, plan %v, want no rows from a scan", res.Rows, res.Plan)
	}
}

// TestPaginationAppliesOffset: OFFSET skips rows before LIMIT takes
// them on plain, DISTINCT and grouped queries alike, and a negative
// OFFSET skips none.
func TestPaginationAppliesOffset(t *testing.T) {
	db := storage.NewDatabase("pages")
	if _, err := RunSQL(db, "CREATE TABLE t (id INT PRIMARY KEY, g INT)"); err != nil {
		t.Fatal(err)
	}
	for i := range 12 {
		if _, err := RunSQL(db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i/2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1", "[[1] [2]]"},
		{"SELECT DISTINCT g FROM t ORDER BY g LIMIT 2 OFFSET 1", "[[1] [2]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g LIMIT 2 OFFSET 1", "[[1 2] [2 2]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g DESC LIMIT 3 OFFSET 4", "[[1 2] [0 2]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g OFFSET 5", "[[5 2]]"},
		{"SELECT COUNT(*) FROM t LIMIT 1 OFFSET 1", "[]"},
		{"SELECT id FROM t ORDER BY id LIMIT 2 OFFSET -1", "[[0] [1]]"},
	} {
		res, err := RunSQL(db, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var rows [][]string
		for _, row := range res.Rows {
			var cells []string
			for _, v := range row {
				cells = append(cells, v.String())
			}
			rows = append(rows, cells)
		}
		if got := fmt.Sprint(rows); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}
