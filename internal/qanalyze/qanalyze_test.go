package qanalyze

import (
	"testing"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/sqlast"
)

func facts(t *testing.T, sql string) *Facts {
	t.Helper()
	return Analyze(parser.Parse(sql))
}

func TestSelectStarAndDistinct(t *testing.T) {
	f := facts(t, "SELECT DISTINCT * FROM users")
	if !f.SelectStar || !f.Distinct {
		t.Errorf("facts = %+v", f)
	}
	f = facts(t, "SELECT id FROM users")
	if f.SelectStar {
		t.Error("false star")
	}
}

func TestJoinFacts(t *testing.T) {
	f := facts(t, `SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id JOIN items i ON o.id = i.order_id`)
	if f.JoinCount != 2 {
		t.Errorf("joins = %d", f.JoinCount)
	}
	if len(f.JoinEqualities) != 2 {
		t.Fatalf("equalities = %+v", f.JoinEqualities)
	}
	je := f.JoinEqualities[0]
	if je.LeftColumn != "id" || je.RightColumn != "user_id" {
		t.Errorf("je = %+v", je)
	}
	if f.ExprJoin {
		t.Error("equality join flagged as expression join")
	}
}

func TestExprJoinDetected(t *testing.T) {
	f := facts(t, `SELECT * FROM Tenants t JOIN Users u ON t.User_IDs LIKE '%' || u.User_ID || '%'`)
	if !f.ExprJoin || !f.PatternMatching {
		t.Errorf("facts = %+v", f)
	}
}

func TestCommaJoinCounted(t *testing.T) {
	f := facts(t, "SELECT * FROM a, b, c WHERE a.x = b.x")
	if f.JoinCount != 2 {
		t.Errorf("joins = %d", f.JoinCount)
	}
}

func TestPredicateFacts(t *testing.T) {
	f := facts(t, "SELECT id FROM t WHERE name LIKE '%smith' AND age > 30 AND city = 'Rome'")
	if len(f.Predicates) != 3 {
		t.Fatalf("predicates = %+v", f.Predicates)
	}
	if !f.Predicates[0].LeadingWildcard || !f.PatternMatching {
		t.Error("leading wildcard missed")
	}
	if f.Predicates[1].Op != ">" || f.Predicates[2].Literal != "Rome" {
		t.Errorf("predicates = %+v", f.Predicates)
	}
}

func TestTrailingWildcardNotPatternMatching(t *testing.T) {
	f := facts(t, "SELECT id FROM t WHERE name LIKE 'smith%'")
	if f.PatternMatching {
		t.Error("prefix LIKE wrongly flagged (it is index-friendly)")
	}
}

func TestRegexpFlagged(t *testing.T) {
	f := facts(t, "SELECT id FROM t WHERE name REGEXP '^a.*b$'")
	if !f.PatternMatching {
		t.Error("REGEXP not flagged")
	}
}

func TestOrderByRand(t *testing.T) {
	if !facts(t, "SELECT * FROM t ORDER BY RAND()").OrderByRand {
		t.Error("RAND() missed")
	}
	if !facts(t, "SELECT * FROM t ORDER BY RANDOM()").OrderByRand {
		t.Error("RANDOM() missed")
	}
	if facts(t, "SELECT * FROM t ORDER BY name").OrderByRand {
		t.Error("false positive")
	}
}

func TestInsertFacts(t *testing.T) {
	f := facts(t, "INSERT INTO t VALUES (1, 'a')")
	if !f.InsertNoColumns {
		t.Error("implicit columns missed")
	}
	if len(f.InsertLiterals) != 1 || f.InsertLiterals[0][1] != "a" {
		t.Errorf("literals = %+v", f.InsertLiterals)
	}
	f = facts(t, "INSERT INTO t (a, b) VALUES (1, 'a')")
	if f.InsertNoColumns {
		t.Error("explicit columns flagged")
	}
	if len(f.InsertColumns) != 2 {
		t.Errorf("columns = %v", f.InsertColumns)
	}
}

func TestUpdateDeleteFacts(t *testing.T) {
	f := facts(t, "UPDATE users SET role = 'R5', score = 1 WHERE role = 'R2'")
	if len(f.SetColumns) != 2 || f.SetColumns[0] != "role" {
		t.Errorf("set = %v", f.SetColumns)
	}
	if len(f.Predicates) != 1 || f.Predicates[0].Column != "role" {
		t.Errorf("predicates = %+v", f.Predicates)
	}
	f = facts(t, "DELETE FROM logs WHERE ts < '2020'")
	if len(f.Predicates) != 1 || f.Predicates[0].Op != "<" {
		t.Errorf("predicates = %+v", f.Predicates)
	}
}

func TestDDLFacts(t *testing.T) {
	f := facts(t, "CREATE TABLE t (a INT)")
	if f.CreatesTable != "t" {
		t.Error("creates table")
	}
	f = facts(t, "CREATE UNIQUE INDEX i ON t (a, b)")
	if f.CreatesIndex == nil || !f.CreatesIndex.Unique || len(f.CreatesIndex.Columns) != 2 {
		t.Errorf("index fact = %+v", f.CreatesIndex)
	}
}

func TestConcatColumns(t *testing.T) {
	f := facts(t, "SELECT first_name || ' ' || last_name FROM users")
	if len(f.ConcatColumns) < 2 {
		t.Errorf("concat columns = %+v", f.ConcatColumns)
	}
}

func TestResolveAndMentions(t *testing.T) {
	f := facts(t, "SELECT u.name FROM users u JOIN orders o ON u.id = o.uid WHERE o.total > 5")
	if f.ResolveTable("u") != "users" || f.ResolveTable("orders") != "orders" {
		t.Error("ResolveTable")
	}
	if f.ResolveTable("zz") != "" {
		t.Error("unknown alias resolved")
	}
	if !f.MentionsTable("users") || f.MentionsTable("ghost") {
		t.Error("MentionsTable")
	}
	if !f.MentionsColumn("orders", "total") {
		t.Error("MentionsColumn qualified")
	}
	if f.MentionsColumn("users", "total") {
		t.Error("MentionsColumn wrong table")
	}
	// Unqualified column on a single-table query resolves to it.
	f2 := facts(t, "SELECT name FROM users WHERE age > 3")
	if !f2.MentionsColumn("users", "age") {
		t.Error("unqualified column resolution")
	}
}

func TestGroupByFacts(t *testing.T) {
	f := facts(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
	if len(f.GroupByColumns) != 1 || f.GroupByColumns[0] != "dept" {
		t.Errorf("group = %v", f.GroupByColumns)
	}
}

func TestAnalyzeAll(t *testing.T) {
	fs := AnalyzeAll(parser.ParseAll("SELECT 1; INSERT INTO t VALUES (1)"))
	if len(fs) != 2 || fs[0].Kind != sqlast.KindSelect || fs[1].Kind != sqlast.KindInsert {
		t.Errorf("facts = %+v", fs)
	}
}

func TestInsertSelectAnalyzed(t *testing.T) {
	f := facts(t, "INSERT INTO t (a) SELECT x FROM src WHERE y LIKE '%q'")
	if !f.PatternMatching {
		t.Error("nested select facts not extracted")
	}
	if !f.MentionsTable("src") {
		t.Error("nested select tables missed")
	}
}

func TestUnionAnalyzed(t *testing.T) {
	f := facts(t, "SELECT * FROM a UNION SELECT * FROM b")
	if !f.MentionsTable("a") || !f.MentionsTable("b") {
		t.Error("union tables")
	}
}
