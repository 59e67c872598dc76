package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"sqlcheck/internal/sqlast"
)

func sel(t *testing.T, sql string) *sqlast.SelectStatement {
	t.Helper()
	st := Parse(sql)
	s, ok := st.(*sqlast.SelectStatement)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStatement", sql, st)
	}
	return s
}

func TestParseSelectBasics(t *testing.T) {
	s := sel(t, "SELECT id, name AS n FROM users u WHERE id = 42 ORDER BY name DESC LIMIT 10")
	if len(s.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(s.Items))
	}
	if s.Items[1].Alias != "n" {
		t.Errorf("alias = %q, want n", s.Items[1].Alias)
	}
	if len(s.From) != 1 || s.From[0].Name != "users" || s.From[0].Alias != "u" {
		t.Errorf("from = %+v", s.From)
	}
	be, ok := s.Where.(*sqlast.BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %#v", s.Where)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Errorf("orderBy = %+v", s.OrderBy)
	}
	if s.Limit == nil {
		t.Error("limit missing")
	}
}

func TestParseSelectStar(t *testing.T) {
	s := sel(t, "SELECT * FROM t")
	if !s.Items[0].Star {
		t.Error("star not detected")
	}
	s = sel(t, "SELECT t.* FROM t")
	if !s.Items[0].Star || s.Items[0].StarTable != "t" {
		t.Errorf("qualified star: %+v", s.Items[0])
	}
	s = sel(t, "SELECT a, b FROM t")
	if s.Items[0].Star || s.Items[1].Star {
		t.Error("false star")
	}
}

func TestParseJoins(t *testing.T) {
	s := sel(t, `SELECT u.name FROM users AS u
		JOIN orders o ON u.id = o.user_id
		LEFT OUTER JOIN items i ON o.id = i.order_id
		CROSS JOIN regions`)
	if len(s.Joins) != 3 {
		t.Fatalf("joins = %d, want 3", len(s.Joins))
	}
	if s.Joins[0].Kind != "INNER" || s.Joins[1].Kind != "LEFT" || s.Joins[2].Kind != "CROSS" {
		t.Errorf("join kinds = %v %v %v", s.Joins[0].Kind, s.Joins[1].Kind, s.Joins[2].Kind)
	}
	on, ok := s.Joins[0].On.(*sqlast.BinaryExpr)
	if !ok {
		t.Fatalf("join on = %#v", s.Joins[0].On)
	}
	l := on.Left.(*sqlast.ColumnRef)
	r := on.Right.(*sqlast.ColumnRef)
	if l.Table != "u" || l.Column != "id" || r.Table != "o" || r.Column != "user_id" {
		t.Errorf("on = %v.%v = %v.%v", l.Table, l.Column, r.Table, r.Column)
	}
}

func TestParseJoinUsing(t *testing.T) {
	s := sel(t, "SELECT * FROM a JOIN b USING (id, tenant_id)")
	if len(s.Joins) != 1 || len(s.Joins[0].Using) != 2 {
		t.Fatalf("using = %+v", s.Joins)
	}
}

func TestParseCommaJoin(t *testing.T) {
	s := sel(t, "SELECT * FROM a, b WHERE a.id = b.id")
	if len(s.From) != 2 {
		t.Errorf("from = %+v", s.From)
	}
}

func TestParseGroupHaving(t *testing.T) {
	s := sel(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 5")
	if len(s.GroupBy) != 1 {
		t.Fatalf("groupBy = %+v", s.GroupBy)
	}
	if s.Having == nil {
		t.Error("having missing")
	}
	fc, ok := s.Items[1].Expr.(*sqlast.FuncCall)
	if !ok || fc.Name != "COUNT" || !fc.Star {
		t.Errorf("count(*) = %#v", s.Items[1].Expr)
	}
}

func TestParseDistinct(t *testing.T) {
	s := sel(t, "SELECT DISTINCT a FROM t")
	if !s.Distinct {
		t.Error("distinct not set")
	}
}

func TestParseSubquery(t *testing.T) {
	s := sel(t, "SELECT * FROM (SELECT id FROM users) sub WHERE id IN (SELECT uid FROM x)")
	if s.From[0].Sub == nil || s.From[0].Alias != "sub" {
		t.Fatalf("from sub = %+v", s.From[0])
	}
	in, ok := s.Where.(*sqlast.BinaryExpr)
	if !ok || in.Op != "IN" {
		t.Fatalf("where = %#v", s.Where)
	}
	if _, ok := in.Right.(*sqlast.SubQuery); !ok {
		t.Errorf("IN right = %#v", in.Right)
	}
}

func TestParseUnion(t *testing.T) {
	s := sel(t, "SELECT a FROM t UNION ALL SELECT b FROM u")
	if len(s.Setop) != 1 {
		t.Fatalf("setop = %d", len(s.Setop))
	}
}

func TestParseWithCTE(t *testing.T) {
	s := sel(t, "WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r")
	if len(s.With) != 1 || !s.With[0].Recursive || s.With[0].Name != "r" {
		t.Fatalf("with = %+v", s.With)
	}
	if s.With[0].Select == nil {
		t.Error("cte select missing")
	}
}

func TestParseInsert(t *testing.T) {
	st := Parse("INSERT INTO Tenant VALUES ('T1', 'Z1', TRUE, 'U1,U2')")
	ins := st.(*sqlast.InsertStatement)
	if ins.Table != "Tenant" {
		t.Errorf("table = %q", ins.Table)
	}
	if len(ins.Columns) != 0 {
		t.Errorf("columns = %v, want none (implicit)", ins.Columns)
	}
	if len(ins.Rows) != 1 || len(ins.Rows[0]) != 4 {
		t.Fatalf("rows = %+v", ins.Rows)
	}
}

// TestValuesRowsSizedAtPreviousWidth: each VALUES row after the first
// is allocated at the previous row's width, and a row with no items
// stays nil, as it was when rows grew by appends.
func TestValuesRowsSizedAtPreviousWidth(t *testing.T) {
	ins := Parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', 3.5), (), (3), (").(*sqlast.InsertStatement)
	if len(ins.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(ins.Rows))
	}
	if r := ins.Rows[1]; len(r) != 3 || cap(r) != 3 {
		t.Errorf("second row len %d cap %d, want 3 and 3", len(r), cap(r))
	}
	if ins.Rows[2] != nil || ins.Rows[4] != nil {
		t.Errorf("empty rows = %#v, %#v; want nil", ins.Rows[2], ins.Rows[4])
	}
	if len(ins.Rows[3]) != 1 {
		t.Errorf("row after an empty row = %#v, want one item", ins.Rows[3])
	}
}

func TestParseInsertWithColumns(t *testing.T) {
	st := Parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
	ins := st.(*sqlast.InsertStatement)
	if len(ins.Columns) != 2 || ins.Columns[0] != "a" {
		t.Errorf("columns = %v", ins.Columns)
	}
	if len(ins.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(ins.Rows))
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := Parse("INSERT INTO t (a) SELECT x FROM u")
	ins := st.(*sqlast.InsertStatement)
	if ins.Select == nil {
		t.Fatal("select missing")
	}
}

func TestParseUpdate(t *testing.T) {
	st := Parse("UPDATE users SET name = 'x', age = age + 1 WHERE id = 7")
	up := st.(*sqlast.UpdateStatement)
	if up.Table != "users" || len(up.Set) != 2 {
		t.Fatalf("update = %+v", up)
	}
	if up.Set[0].Column.Column != "name" {
		t.Errorf("set[0] = %+v", up.Set[0])
	}
	if up.Where == nil {
		t.Error("where missing")
	}
}

func TestParseDelete(t *testing.T) {
	st := Parse("DELETE FROM logs WHERE ts < '2020-01-01'")
	del := st.(*sqlast.DeleteStatement)
	if del.Table != "logs" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := Parse(`CREATE TABLE Hosting (
		User_ID VARCHAR(10) NOT NULL REFERENCES Users(User_ID) ON DELETE CASCADE,
		Tenant_ID VARCHAR(10) REFERENCES Tenants(Tenant_ID),
		Score FLOAT DEFAULT 0.5,
		PRIMARY KEY (User_ID, Tenant_ID)
	)`)
	ct := st.(*sqlast.CreateTableStatement)
	if ct.Name != "Hosting" || len(ct.Columns) != 3 {
		t.Fatalf("create = %+v", ct)
	}
	c0 := ct.Columns[0]
	if c0.Type != "VARCHAR" || len(c0.TypeParams) != 1 || c0.TypeParams[0] != "10" {
		t.Errorf("col0 type = %v(%v)", c0.Type, c0.TypeParams)
	}
	if !c0.NotNull || c0.References == nil || c0.References.Table != "Users" || c0.References.OnDelete != "CASCADE" {
		t.Errorf("col0 = %+v ref=%+v", c0, c0.References)
	}
	if ct.Columns[2].Default == nil {
		t.Error("default missing")
	}
	if len(ct.Constraints) != 1 || ct.Constraints[0].CKind != "PRIMARY KEY" || len(ct.Constraints[0].Columns) != 2 {
		t.Errorf("constraints = %+v", ct.Constraints)
	}
}

func TestParseCreateTableInlinePKAndEnum(t *testing.T) {
	st := Parse("CREATE TABLE u (id INT PRIMARY KEY AUTO_INCREMENT, role ENUM('a','b','c'), bio TEXT)")
	ct := st.(*sqlast.CreateTableStatement)
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].AutoIncrement {
		t.Errorf("col0 = %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type != "ENUM" || len(ct.Columns[1].TypeParams) != 3 || ct.Columns[1].TypeParams[0] != "a" {
		t.Errorf("enum = %+v", ct.Columns[1])
	}
}

func TestParseCreateTableCheck(t *testing.T) {
	st := Parse("CREATE TABLE t (role VARCHAR(10) CHECK (role IN ('R1','R2')), CONSTRAINT c1 CHECK (role <> ''))")
	ct := st.(*sqlast.CreateTableStatement)
	if ct.Columns[0].Check == nil {
		t.Error("column check missing")
	}
	if len(ct.Constraints) != 1 || ct.Constraints[0].Name != "c1" || ct.Constraints[0].CKind != "CHECK" {
		t.Errorf("constraints = %+v", ct.Constraints)
	}
}

func TestParseCreateTableTimestampTZ(t *testing.T) {
	st := Parse("CREATE TABLE e (at TIMESTAMP WITH TIME ZONE, at2 TIMESTAMP WITHOUT TIME ZONE, at3 TIMESTAMPTZ, at4 DATETIME)")
	ct := st.(*sqlast.CreateTableStatement)
	types := []string{
		"TIMESTAMP WITH TIME ZONE", "TIMESTAMP WITHOUT TIME ZONE",
		"TIMESTAMP WITH TIME ZONE", "DATETIME",
	}
	for i, want := range types {
		if ct.Columns[i].Type != want {
			t.Errorf("col%d type = %q, want %q", i, ct.Columns[i].Type, want)
		}
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := Parse("CREATE UNIQUE INDEX idx_zone ON Tenant (Zone_ID, Active)")
	ci := st.(*sqlast.CreateIndexStatement)
	if !ci.Unique || ci.Name != "idx_zone" || ci.Table != "Tenant" || len(ci.Columns) != 2 {
		t.Fatalf("ci = %+v", ci)
	}
}

func TestParseAlterTable(t *testing.T) {
	cases := []struct {
		sql    string
		action sqlast.AlterAction
	}{
		{"ALTER TABLE t ADD COLUMN c INT", sqlast.AlterAddColumn},
		{"ALTER TABLE t ADD c INT NOT NULL", sqlast.AlterAddColumn},
		{"ALTER TABLE t DROP COLUMN c", sqlast.AlterDropColumn},
		{"ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (a) REFERENCES u(b)", sqlast.AlterAddConstraint},
		{"ALTER TABLE t DROP CONSTRAINT IF EXISTS chk", sqlast.AlterDropConstraint},
		{"ALTER TABLE t RENAME TO t2", sqlast.AlterRename},
		{"ALTER TABLE User ADD CONSTRAINT User_Role_Check CHECK (ROLE IN ('R1','R2','R3'))", sqlast.AlterAddConstraint},
	}
	for _, c := range cases {
		st := Parse(c.sql)
		at, ok := st.(*sqlast.AlterTableStatement)
		if !ok {
			t.Errorf("Parse(%q) = %T", c.sql, st)
			continue
		}
		if at.Action != c.action {
			t.Errorf("Parse(%q).Action = %v, want %v", c.sql, at.Action, c.action)
		}
	}
	at := Parse("ALTER TABLE t DROP CONSTRAINT IF EXISTS chk").(*sqlast.AlterTableStatement)
	if !at.IfExists || at.DropName != "chk" {
		t.Errorf("drop constraint: %+v", at)
	}
	fk := Parse("ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (a) REFERENCES u(b)").(*sqlast.AlterTableStatement)
	if fk.Constraint == nil || fk.Constraint.Ref == nil || fk.Constraint.Ref.Table != "u" {
		t.Errorf("fk constraint: %+v", fk.Constraint)
	}
}

func TestParseDrop(t *testing.T) {
	d := Parse("DROP TABLE IF EXISTS t").(*sqlast.DropStatement)
	if d.DropKind != sqlast.KindDropTable || !d.IfExists || d.Name != "t" {
		t.Fatalf("drop = %+v", d)
	}
	d2 := Parse("DROP INDEX idx").(*sqlast.DropStatement)
	if d2.DropKind != sqlast.KindDropIndex {
		t.Fatalf("drop idx = %+v", d2)
	}
}

func TestParseOther(t *testing.T) {
	st := Parse("GRANT ALL ON t TO bob")
	o, ok := st.(*sqlast.OtherStatement)
	if !ok || o.Verb != "GRANT" {
		t.Fatalf("other = %#v", st)
	}
	if o.Kind() != sqlast.KindOther {
		t.Error("kind")
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e := ParseExpr("a = 1 OR b = 2 AND c = 3")
	or, ok := e.(*sqlast.BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %#v", e)
	}
	and, ok := or.Right.(*sqlast.BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %#v", or.Right)
	}
}

func TestParseExprLikeConcat(t *testing.T) {
	e := ParseExpr("t.User_IDs LIKE '%' || u.User_ID || '%'")
	like, ok := e.(*sqlast.BinaryExpr)
	if !ok || like.Op != "LIKE" {
		t.Fatalf("e = %#v", e)
	}
	cat, ok := like.Right.(*sqlast.BinaryExpr)
	if !ok || cat.Op != "||" {
		t.Fatalf("right = %#v", like.Right)
	}
}

func TestParseExprInBetween(t *testing.T) {
	in := ParseExpr("x IN (1, 2, 3)").(*sqlast.BinaryExpr)
	if in.Op != "IN" {
		t.Fatal("IN")
	}
	if l := in.Right.(*sqlast.ExprList); len(l.Items) != 3 {
		t.Errorf("in list = %+v", l)
	}
	bt := ParseExpr("x BETWEEN 1 AND 10").(*sqlast.BinaryExpr)
	if bt.Op != "BETWEEN" {
		t.Fatal("BETWEEN")
	}
	ni := ParseExpr("x NOT IN (1)").(*sqlast.BinaryExpr)
	if ni.Op != "IN" || !ni.Not {
		t.Errorf("NOT IN = %+v", ni)
	}
	nl := ParseExpr("x NOT LIKE 'a%'").(*sqlast.BinaryExpr)
	if nl.Op != "LIKE" || !nl.Not {
		t.Errorf("NOT LIKE = %+v", nl)
	}
	isn := ParseExpr("x IS NOT NULL").(*sqlast.BinaryExpr)
	if isn.Op != "IS" || !isn.Not {
		t.Errorf("IS NOT = %+v", isn)
	}
}

func TestParseExprFunctions(t *testing.T) {
	fc := ParseExpr("COALESCE(a, 'x')").(*sqlast.FuncCall)
	if fc.Name != "COALESCE" || len(fc.Args) != 2 {
		t.Fatalf("fc = %+v", fc)
	}
	cd := ParseExpr("COUNT(DISTINCT a)").(*sqlast.FuncCall)
	if !cd.Distinct {
		t.Error("distinct")
	}
	cast := ParseExpr("CAST(a AS INTEGER)").(*sqlast.FuncCall)
	if cast.Name != "CAST" || len(cast.Args) != 2 {
		t.Errorf("cast = %+v", cast)
	}
	rand := ParseExpr("RAND()").(*sqlast.FuncCall)
	if rand.Name != "RAND" {
		t.Error("rand")
	}
}

func TestParseExprCase(t *testing.T) {
	e := ParseExpr("CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END")
	c, ok := e.(*sqlast.CaseExpr)
	if !ok || len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case = %#v", e)
	}
}

func TestParseExprPlaceholderCast(t *testing.T) {
	e := ParseExpr("id = $1")
	be := e.(*sqlast.BinaryExpr)
	if _, ok := be.Right.(*sqlast.Placeholder); !ok {
		t.Errorf("rhs = %#v", be.Right)
	}
	e2 := ParseExpr("a::text = 'x'")
	if be2, ok := e2.(*sqlast.BinaryExpr); !ok || be2.Op != "=" {
		t.Errorf("cast expr = %#v", e2)
	}
}

func TestParserNeverPanics(t *testing.T) {
	inputs := []string{
		"", ";", "SELECT", "SELECT FROM WHERE", "CREATE TABLE",
		"INSERT INTO", "UPDATE SET", ")( nonsense )(",
		"SELECT ((((((", "CREATE TABLE t (a,b,c,,,)",
		"ALTER", "DROP", "SELECT * FROM t WHERE a LIKE",
		"WITH x AS SELECT 1",
	}
	for _, in := range inputs {
		st := Parse(in) // must not panic
		if st == nil {
			t.Errorf("Parse(%q) = nil", in)
		}
	}
	f := func(s string) bool { return Parse(s) != nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: for statements the parser models, serializing and
// re-parsing yields the same statement kind and table targets.
func TestParseSerializeReparse(t *testing.T) {
	stmts := []string{
		"SELECT a, b FROM t WHERE a = 1 AND b LIKE 'x%' ORDER BY a DESC LIMIT 5",
		"SELECT DISTINCT u.name FROM users u JOIN orders o ON u.id = o.uid",
		"INSERT INTO t (a, b) VALUES (1, 'two')",
		"UPDATE t SET a = 2 WHERE b IN (1, 2)",
		"DELETE FROM t WHERE a IS NULL",
		"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10) NOT NULL)",
		"CREATE UNIQUE INDEX i ON t (a, b)",
		"ALTER TABLE t ADD COLUMN c TEXT",
		"DROP TABLE IF EXISTS t",
	}
	for _, s := range stmts {
		first := Parse(s)
		out := sqlast.SQL(first)
		second := Parse(out)
		if first.Kind() != second.Kind() {
			t.Errorf("reparse kind mismatch for %q -> %q: %v vs %v", s, out, first.Kind(), second.Kind())
		}
		out2 := sqlast.SQL(second)
		if out != out2 {
			t.Errorf("serialize not a fixpoint: %q -> %q -> %q", s, out, out2)
		}
	}
}

func TestParseAllSplit(t *testing.T) {
	stmts := ParseAll("CREATE TABLE a (x INT); SELECT * FROM a; -- done\n")
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if stmts[0].Kind() != sqlast.KindCreateTable || stmts[1].Kind() != sqlast.KindSelect {
		t.Errorf("kinds = %v %v", stmts[0].Kind(), stmts[1].Kind())
	}
}

func TestColumnRefsHelper(t *testing.T) {
	e := ParseExpr("a.x = 1 AND b.y > c")
	refs := sqlast.ColumnRefs(e)
	if len(refs) != 3 {
		t.Fatalf("refs = %+v", refs)
	}
}

func TestSerializeExpr(t *testing.T) {
	cases := map[string]string{
		"a = 1":             "a = 1",
		"a IS NOT NULL":     "a IS NOT NULL",
		"x NOT IN (1, 2)":   "x NOT IN (1, 2)",
		"f(a, b)":           "F(a, b)",
		"a || 'it''s'":      "a || 'it''s'",
		"x BETWEEN 1 AND 2": "x BETWEEN (1, 2)",
		"NOT a":             "NOT a",
		"COUNT(*)":          "COUNT(*)",
		"COUNT(DISTINCT a)": "COUNT(DISTINCT a)",
		"t.c LIKE '%x%'":    "t.c LIKE '%x%'",
	}
	for in, want := range cases {
		got := sqlast.ExprSQL(ParseExpr(in))
		if got != want {
			t.Errorf("ExprSQL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSerializeStatementShapes(t *testing.T) {
	s := sqlast.SQL(Parse("SELECT t.* FROM t"))
	if !strings.Contains(s, "t.*") {
		t.Errorf("table star lost: %q", s)
	}
	s = sqlast.SQL(Parse("INSERT INTO t VALUES (1)"))
	if !strings.HasPrefix(s, "INSERT INTO t VALUES") {
		t.Errorf("insert = %q", s)
	}
	s = sqlast.SQL(Parse("CREATE TABLE x (r VARCHAR(5) CHECK (r IN ('a','b')))"))
	if !strings.Contains(s, "CHECK (r IN ('a', 'b'))") {
		t.Errorf("check lost: %q", s)
	}
}

func BenchmarkParseSelect(b *testing.B) {
	q := "SELECT u.id, u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id WHERE o.total > 100 AND u.email LIKE '%@example.com' GROUP BY u.id HAVING COUNT(*) > 2 ORDER BY o.total DESC LIMIT 50"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(q)
	}
}

func BenchmarkParseCreateTable(b *testing.B) {
	q := "CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR(30) NOT NULL, b FLOAT DEFAULT 1.5, c TEXT REFERENCES u(x) ON DELETE CASCADE, CONSTRAINT ck CHECK (a IN ('p','q')))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(q)
	}
}

// TestRawRestOwnsItsTokens pins that an unparsed tail holds an
// exact-size copy of its tokens, not a window into the statement's
// token array that would keep all of it alive with the AST.
func TestRawRestOwnsItsTokens(t *testing.T) {
	s := sel(t, "SELECT CAST price AS INT FROM items")
	raw, ok := s.Items[0].Expr.(*sqlast.Raw)
	if !ok {
		t.Fatalf("item = %#v, want *Raw", s.Items[0].Expr)
	}
	if len(raw.Tokens) == 0 || cap(raw.Tokens) != len(raw.Tokens) {
		t.Errorf("raw tokens len %d cap %d, want a non-empty exact-size copy", len(raw.Tokens), cap(raw.Tokens))
	}
}
