package exec

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

// evalConst evaluates a constant SQL expression.
func evalConst(t *testing.T, expr string) storage.Value {
	t.Helper()
	v, err := Eval(parser.ParseExpr(expr), &Env{Rand: NewRand(1)})
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := map[string]string{
		"1 + 2":     "3",
		"7 - 9":     "-2",
		"6 * 7":     "42",
		"7 / 2":     "3", // integer division
		"7 % 3":     "1",
		"7.0 / 2":   "3.5",
		"1.5 + 2.5": "4",
		"2 * 3 + 4": "10",
		"2 + 3 * 4": "14",
		"-(3) + 1":  "-2",
		"1 / 0":     "NULL", // division by zero yields NULL, not panic
		"5 % 0":     "NULL",
		"5.0 / 0":   "NULL",
		"NULL + 1":  "NULL",
		"'3' + 4":   "7", // string coercion
		"'x' + 4":   "NULL",
	}
	for expr, want := range cases {
		if got := evalConst(t, expr).String(); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := map[string]string{
		"1 < 2":                 "true",
		"2 <= 2":                "true",
		"3 > 4":                 "false",
		"3 >= 4":                "false",
		"1 <> 2":                "true",
		"1 != 1":                "false",
		"'a' < 'b'":             "true",
		"TRUE AND FALSE":        "false",
		"TRUE OR FALSE":         "true",
		"NOT TRUE":              "false",
		"NULL AND TRUE":         "NULL",
		"NULL AND FALSE":        "false", // short-circuit: false wins
		"NULL OR TRUE":          "true",
		"NULL OR FALSE":         "NULL",
		"NOT (NULL)":            "NULL",
		"NULL IS NULL":          "true",
		"1 IS NOT NULL":         "true",
		"1 = NULL":              "NULL",
		"2 BETWEEN 1 AND 3":     "true",
		"0 BETWEEN 1 AND 3":     "false",
		"2 NOT BETWEEN 1 AND 3": "false",
		"NULL BETWEEN 1 AND 2":  "NULL",
		"1 IN (1, 2)":           "true",
		"3 IN (1, 2)":           "false",
		"3 IN (1, NULL)":        "NULL", // SQL three-valued IN
		"3 NOT IN (1, 2)":       "true",
	}
	for expr, want := range cases {
		if got := evalConst(t, expr).String(); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestLikeAndRegexpOperators(t *testing.T) {
	cases := map[string]string{
		`'hello' LIKE 'h%'`:                  "true",
		`'hello' LIKE '%ell%'`:               "true",
		`'hello' LIKE 'h_llo'`:               "true",
		`'hello' LIKE 'H%'`:                  "false", // LIKE is case-sensitive here
		`'hello' ILIKE 'H%'`:                 "true",
		`'hello' NOT LIKE 'x%'`:              "true",
		`'hello' GLOB 'h*'`:                  "true",
		`'hello' GLOB 'h?llo'`:               "true",
		`'a.c' LIKE 'a.c'`:                   "true", // dot is literal in LIKE
		`'abc' LIKE 'a.c'`:                   "false",
		`'hello' REGEXP '^h.*o$'`:            "true",
		`'hello' REGEXP '^x'`:                "false",
		`'U1,U2' REGEXP '[[:<:]]U1[[:>:]]'`:  "true",
		`'U12,U2' REGEXP '[[:<:]]U1[[:>:]]'`: "false", // word boundary
		`NULL LIKE 'x'`:                      "NULL",
		`'x' LIKE NULL`:                      "NULL",
	}
	for expr, want := range cases {
		if got := evalConst(t, expr).String(); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestLikeRegexpCompileErrors(t *testing.T) {
	// Invalid REGEXP pattern surfaces as an error, not a panic.
	_, err := Eval(parser.ParseExpr(`'x' REGEXP '['`), &Env{})
	if err == nil {
		t.Error("invalid regexp accepted")
	}
}

// TestPatternCacheBounded: a stream of ever-new patterns, from
// several goroutines at once, holds at most patternCacheMax compiled
// regexps, and a repeated pattern is compiled once.
func TestPatternCacheBounded(t *testing.T) {
	const workers, each = 4, patternCacheMax / 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				expr := fmt.Sprintf(`'abc' LIKE '%%x%d-%d%%'`, w, i)
				if v, err := Eval(parser.ParseExpr(expr), &Env{}); err != nil || v.String() != "false" {
					t.Errorf("%s = %v, %v; want false", expr, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	patterns.Lock()
	n := len(patterns.m)
	patterns.Unlock()
	if n > patternCacheMax {
		t.Errorf("pattern cache holds %d regexps after %d distinct patterns, want at most %d", n, workers*each, patternCacheMax)
	}
	first, err := compilePattern("%repeated%", "LIKE")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := compilePattern("%repeated%", "LIKE"); again != first {
		t.Error("a repeated pattern was compiled again")
	}
	if other, _ := compilePattern("%repeated%", "ILIKE"); other == first {
		t.Error("ILIKE shares LIKE's compiled pattern")
	}
}

func TestCastValueVariants(t *testing.T) {
	cases := map[string]string{
		"CAST('42' AS INTEGER)": "42",
		"CAST(3.9 AS INT)":      "3",
		"CAST(7 AS FLOAT)":      "7",
		"CAST(1 AS BOOLEAN)":    "true",
		"CAST(0 AS BOOL)":       "false",
		"CAST(42 AS TEXT)":      "42",
		"CAST('x' AS INTEGER)":  "NULL", // non-coercible
		"CAST(NULL AS INTEGER)": "NULL",
		"CAST(5 AS WEIRDTYPE)":  "5", // unknown type passes through
	}
	for expr, want := range cases {
		if got := evalConst(t, expr).String(); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestMoreScalarFunctions(t *testing.T) {
	cases := map[string]string{
		"IFNULL(NULL, 3)":         "3",
		"NVL(2, 3)":               "2",
		"ROUND(2.6)":              "3",
		"ROUND(-2.6)":             "-3",
		"ABS(-2.5)":               "2.5",
		"SUBSTR('hello', 99)":     "",
		"SUBSTR('hello', 0)":      "hello",
		"LENGTH(NULL)":            "NULL",
		"CONCAT('a', NULL)":       "NULL",
		"REPLACE(NULL, 'a', 'b')": "NULL",
	}
	for expr, want := range cases {
		if got := evalConst(t, expr).String(); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
	// Unknown function errors.
	if _, err := Eval(parser.ParseExpr("FROBNICATE(1)"), &Env{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown function err = %v", err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(7)
	b := NewRand(7)
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Rand not deterministic")
		}
	}
	if NewRand(0).Next() == 0 {
		t.Error("zero seed must be remapped")
	}
	if NewRand(3).Intn(0) != 0 {
		t.Error("Intn(0) guards")
	}
}

func TestEnvPushPopResolve(t *testing.T) {
	db := storage.NewDatabase("e")
	ta := db.CreateTable("a", []storage.ColumnDef{{Name: "x"}})
	tb := db.CreateTable("b", []storage.ColumnDef{{Name: "x"}})
	env := &Env{}
	env.Push("a", ta, storage.Row{storage.Int(1)})
	env.Push("b", tb, storage.Row{storage.Int(2)})
	// Qualified resolution.
	v, err := env.Resolve(&sqlast.ColumnRef{Table: "a", Column: "x"})
	if err != nil || v.I != 1 {
		t.Errorf("a.x = %v, %v", v, err)
	}
	// Unqualified picks the innermost frame.
	v, _ = env.Resolve(&sqlast.ColumnRef{Column: "x"})
	if v.I != 2 {
		t.Errorf("x = %v, want 2 (innermost)", v)
	}
	env.Pop()
	v, _ = env.Resolve(&sqlast.ColumnRef{Column: "x"})
	if v.I != 1 {
		t.Errorf("after pop x = %v", v)
	}
	if _, err := env.Resolve(&sqlast.ColumnRef{Column: "nope"}); err == nil {
		t.Error("unknown column resolved")
	}
	// Nil row yields NULL (used while planning).
	env2 := &Env{}
	env2.Push("a", ta, nil)
	v, err = env2.Resolve(&sqlast.ColumnRef{Column: "x"})
	if err != nil || !v.IsNull() {
		t.Errorf("nil row = %v, %v", v, err)
	}
}

func TestUnsupportedConstructsError(t *testing.T) {
	db := storage.NewDatabase("u")
	if _, err := RunSQL(db, "GRANT ALL ON t TO bob"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("GRANT err = %v", err)
	}
	if _, err := RunSQL(db, "SELECT * FROM a, b"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("comma join err = %v", err)
	}
	// Scalar subquery in an expression is unsupported, but must error
	// cleanly.
	if _, err := RunSQL(db, "SELECT (SELECT 1)"); err == nil {
		t.Error("scalar subquery accepted")
	}
	// Outer joins would run as inner joins: a's unmatched row 2 must
	// not silently vanish.
	for _, sql := range []string{"CREATE TABLE a (id INT PRIMARY KEY)", "CREATE TABLE b (id INT PRIMARY KEY, a_id INT)",
		"INSERT INTO a VALUES (1), (2)", "INSERT INTO b VALUES (10, 1)"} {
		if _, err := RunSQL(db, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, kind := range []string{"LEFT", "RIGHT", "FULL"} {
		for _, sql := range []string{
			"SELECT a.id, b.id FROM a " + kind + " JOIN b ON b.a_id = a.id",
			"SELECT a.id, COUNT(b.id) FROM a " + kind + " JOIN b ON b.a_id = a.id GROUP BY a.id",
		} {
			if _, err := RunSQL(db, sql); !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s: err = %v, want %v", sql, err, ErrUnsupported)
			}
		}
	}
}

func TestIndexRangeScanSelect(t *testing.T) {
	db := storage.NewDatabase("r")
	mustSQL := func(s string) {
		if _, err := RunSQL(db, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustSQL("CREATE TABLE t (id INT PRIMARY KEY, code VARCHAR(8), v INT)")
	mustSQL("CREATE INDEX ix_code ON t (code)")
	for i := 0; i < 100; i++ {
		mustSQL(fmt.Sprintf("INSERT INTO t (id, code, v) VALUES (%d, 'C%03d', %d)", i, i%10, i))
	}
	res, err := RunSQL(db, "SELECT COUNT(*) FROM t WHERE code < 'C005'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 50 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if !hasPlan(res, "IndexRangeScan") {
		t.Errorf("plan = %v", res.Plan)
	}
	// Reversed literal orientation: 'C005' > code.
	res, err = RunSQL(db, "SELECT COUNT(*) FROM t WHERE 'C005' > code")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 50 {
		t.Errorf("reversed count = %v", res.Rows[0][0])
	}
	// Range UPDATE through matchingIDs.
	upd, err := RunSQL(db, "UPDATE t SET v = 0 WHERE code >= 'C008'")
	if err != nil {
		t.Fatal(err)
	}
	if upd.Affected != 20 {
		t.Errorf("updated = %d", upd.Affected)
	}
	if !hasPlan(upd, "IndexRangeScan") {
		t.Errorf("update plan = %v", upd.Plan)
	}
}

func TestStreamAggregateSumAndMinMax(t *testing.T) {
	db := storage.NewDatabase("sa")
	mustSQL := func(s string) {
		if _, err := RunSQL(db, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustSQL("CREATE TABLE e (id INT PRIMARY KEY, g VARCHAR(4), v INT)")
	mustSQL("CREATE INDEX ix_g ON e (g)")
	for i := 0; i < 60; i++ {
		mustSQL(fmt.Sprintf("INSERT INTO e (id, g, v) VALUES (%d, 'g%d', %d)", i, i%3, i))
	}
	res, err := RunSQL(db, "SELECT g, SUM(v), MIN(v), MAX(v) FROM e GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if !hasPlan(res, "IndexStreamAgg") {
		t.Fatalf("plan = %v", res.Plan)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Group g0 holds 0,3,...,57: sum = 570, min 0, max 57.
	if res.Rows[0][1].I != 570 || res.Rows[0][2].I != 0 || res.Rows[0][3].I != 57 {
		t.Errorf("g0 = %v", res.Rows[0])
	}
}

func TestHavingArithmeticOverAggregates(t *testing.T) {
	db := storage.NewDatabase("ha")
	RunSQL(db, "CREATE TABLE t (g VARCHAR(4), v INT)")
	for i := 0; i < 30; i++ {
		RunSQL(db, fmt.Sprintf("INSERT INTO t (g, v) VALUES ('g%d', %d)", i%3, i))
	}
	// HAVING with arithmetic over an aggregate exercises evalAggExpr's
	// binary path.
	res, err := RunSQL(db, "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) + 0 > 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// Property: three-valued logic — for random operand kinds, AND/OR obey
// Kleene truth tables with respect to NULL.
func TestThreeValuedLogicProperty(t *testing.T) {
	render := func(v storage.Value) string { return v.String() }
	f := func(a, b uint8) bool {
		val := func(x uint8) string {
			switch x % 3 {
			case 0:
				return "TRUE"
			case 1:
				return "FALSE"
			default:
				return "NULL"
			}
		}
		av, bv := val(a), val(b)
		andGot, err := Eval(parser.ParseExpr(av+" AND "+bv), &Env{})
		if err != nil {
			return false
		}
		orGot, err := Eval(parser.ParseExpr(av+" OR "+bv), &Env{})
		if err != nil {
			return false
		}
		kleeneAnd := map[string]map[string]string{
			"TRUE":  {"TRUE": "true", "FALSE": "false", "NULL": "NULL"},
			"FALSE": {"TRUE": "false", "FALSE": "false", "NULL": "false"},
			"NULL":  {"TRUE": "NULL", "FALSE": "false", "NULL": "NULL"},
		}
		kleeneOr := map[string]map[string]string{
			"TRUE":  {"TRUE": "true", "FALSE": "true", "NULL": "true"},
			"FALSE": {"TRUE": "true", "FALSE": "false", "NULL": "NULL"},
			"NULL":  {"TRUE": "true", "FALSE": "NULL", "NULL": "NULL"},
		}
		return render(andGot) == kleeneAnd[av][bv] && render(orGot) == kleeneOr[av][bv]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
