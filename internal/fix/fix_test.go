package fix

import (
	"strings"
	"testing"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/core"
	"sqlcheck/internal/rules"
)

// run detects APs in sql and returns the engine plus findings.
func run(t *testing.T, sql string) (*Engine, []rules.Finding) {
	t.Helper()
	res := core.DetectSQL(sql, nil, core.DefaultOptions())
	return New(res.Context), res.Findings
}

// fixFor returns the fix for the first finding of the rule.
func fixFor(t *testing.T, sql, ruleID string) Fix {
	t.Helper()
	e, findings := run(t, sql)
	for _, f := range findings {
		if f.RuleID == ruleID {
			return e.Repair(f)
		}
	}
	t.Fatalf("no finding for %s in %q", ruleID, sql)
	return Fix{}
}

func TestFixImplicitColumns(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE Tenant (Tenant_ID VARCHAR(10) PRIMARY KEY, Zone_ID VARCHAR(10), Active BOOLEAN, User_IDs TEXT);
		INSERT INTO Tenant VALUES ('T1', 'Z1', TRUE, 'U1,U2');
	`, rules.IDImplicitColumns)
	if len(fx.Rewrites) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	want := "INSERT INTO Tenant (Tenant_ID, Zone_ID, Active, User_IDs) VALUES ('T1', 'Z1', TRUE, 'U1,U2')"
	if fx.Rewrites[0].Fixed != want {
		t.Errorf("fixed = %q, want %q", fx.Rewrites[0].Fixed, want)
	}
}

func TestFixImplicitColumnsWithoutSchemaIsTextual(t *testing.T) {
	fx := fixFor(t, "INSERT INTO mystery VALUES (1, 2)", rules.IDImplicitColumns)
	if fx.Automated() || fx.Textual == "" {
		t.Errorf("fix = %+v, want textual fallback", fx)
	}
}

func TestFixImplicitColumnsArityMismatchIsTextual(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT);
		INSERT INTO t VALUES (1, 2);
	`, rules.IDImplicitColumns)
	if len(fx.Rewrites) != 0 || !strings.Contains(fx.Textual, "supplies 2 values") {
		t.Errorf("fix = %+v", fx)
	}
}

func TestFixColumnWildcard(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);
		SELECT * FROM users WHERE id = 1;
	`, rules.IDColumnWildcard)
	if len(fx.Rewrites) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	if !strings.Contains(fx.Rewrites[0].Fixed, "SELECT id, name, email FROM users") {
		t.Errorf("fixed = %q", fx.Rewrites[0].Fixed)
	}
}

func TestFixColumnWildcardQualifiedInJoin(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE a (x INT PRIMARY KEY);
		CREATE TABLE b (y INT PRIMARY KEY, a_x INT);
		SELECT a.* FROM a JOIN b ON a.x = b.a_x;
	`, rules.IDColumnWildcard)
	if len(fx.Rewrites) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	if !strings.Contains(fx.Rewrites[0].Fixed, "SELECT a.x FROM") {
		t.Errorf("fixed = %q", fx.Rewrites[0].Fixed)
	}
}

func TestFixConcatenateNulls(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE u (first VARCHAR(10) NOT NULL, middle VARCHAR(10));
		SELECT first || middle FROM u;
	`, rules.IDConcatenateNulls)
	if len(fx.Rewrites) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	got := fx.Rewrites[0].Fixed
	if !strings.Contains(got, "COALESCE(middle, '')") {
		t.Errorf("fixed = %q", got)
	}
	if strings.Contains(got, "COALESCE(first") {
		t.Errorf("NOT NULL column wrapped: %q", got)
	}
}

func TestFixMVATask1(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, Zone_ID VARCHAR(10), User_IDs TEXT);
		SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';
	`, rules.IDMultiValuedAttribute)
	if len(fx.NewStatements) < 2 {
		t.Fatalf("new statements = %v", fx.NewStatements)
	}
	if !strings.Contains(fx.NewStatements[0], "CREATE TABLE Tenants_User_ID_map") {
		t.Errorf("intersection table = %q", fx.NewStatements[0])
	}
	if !strings.Contains(fx.NewStatements[0], "PRIMARY KEY (Tenant_ID, User_ID)") {
		t.Errorf("composite key missing: %q", fx.NewStatements[0])
	}
	if !strings.Contains(fx.NewStatements[1], "DROP COLUMN User_IDs") {
		t.Errorf("drop column = %q", fx.NewStatements[1])
	}
	if len(fx.Rewrites) != 1 {
		t.Fatalf("rewrites = %+v", fx.Rewrites)
	}
	got := fx.Rewrites[0].Fixed
	if !strings.Contains(got, "JOIN Tenants AS t ON m.Tenant_ID = t.Tenant_ID") ||
		!strings.Contains(got, "m.User_ID = 'U1'") {
		t.Errorf("rewritten query = %q", got)
	}
}

func TestFixMVATask2JoinRewrite(t *testing.T) {
	e, findings := run(t, `
		CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, User_IDs TEXT);
		CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name TEXT);
		SELECT u.Name FROM Tenants t JOIN Users u ON t.User_IDs LIKE '%' || u.User_ID || '%' WHERE t.Tenant_ID = 'T1';
	`)
	var fx Fix
	found := false
	for _, f := range findings {
		if f.RuleID == rules.IDMultiValuedAttribute && f.QueryIndex >= 0 {
			fx = e.Repair(f)
			if len(fx.Rewrites) > 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatalf("no automated join rewrite produced")
	}
	got := fx.Rewrites[0].Fixed
	if !strings.Contains(got, "FROM Tenants_User_ID_map AS m") {
		t.Errorf("rewritten = %q", got)
	}
	if !strings.Contains(got, "m.User_ID = u.User_ID") {
		t.Errorf("equi-join missing: %q", got)
	}
}

func TestFixNoForeignKeyFromJoinEdge(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);
		CREATE TABLE Questionnaire (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER);
		SELECT * FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID;
	`, rules.IDNoForeignKey)
	if len(fx.NewStatements) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	got := fx.NewStatements[0]
	if !strings.Contains(got, "ALTER TABLE Questionnaire ADD CONSTRAINT") ||
		!strings.Contains(got, "FOREIGN KEY (Tenant_ID) REFERENCES Tenant(Tenant_ID)") {
		t.Errorf("fk fix = %q", got)
	}
}

func TestFixNoPrimaryKey(t *testing.T) {
	fx := fixFor(t, "CREATE TABLE t (user_id INT, v TEXT)", rules.IDNoPrimaryKey)
	if len(fx.NewStatements) != 1 || !strings.Contains(fx.NewStatements[0], "ADD CONSTRAINT t_pkey PRIMARY KEY (user_id)") {
		t.Errorf("fix = %+v", fx)
	}
	// No candidate: textual.
	fx = fixFor(t, "CREATE TABLE t2 (v TEXT, w TEXT)", rules.IDNoPrimaryKey)
	if fx.Automated() {
		t.Errorf("fix = %+v, want textual", fx)
	}
}

func TestFixEnumeratedTypes(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE User2 (User_ID INT PRIMARY KEY, Role VARCHAR(5) CHECK (Role IN ('R1','R2','R3')));
	`, rules.IDEnumeratedTypes)
	if len(fx.NewStatements) < 4 {
		t.Fatalf("statements = %v", fx.NewStatements)
	}
	if !strings.Contains(fx.NewStatements[0], "CREATE TABLE Role_lookup") {
		t.Errorf("lookup table = %q", fx.NewStatements[0])
	}
	if !strings.Contains(fx.NewStatements[1], "VALUES (1, 'R1')") {
		t.Errorf("seed = %q", fx.NewStatements[1])
	}
	last := fx.NewStatements[len(fx.NewStatements)-1]
	if !strings.Contains(last, "ADD COLUMN Role_id INTEGER REFERENCES Role_lookup(Role_id)") {
		t.Errorf("fk column = %q", last)
	}
}

func TestFixIndexOveruseAndUnderuse(t *testing.T) {
	fx := fixFor(t, `
		CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);
		CREATE INDEX big ON t (a, b);
		CREATE INDEX little ON t (a);
		SELECT id FROM t WHERE a = 1;
	`, rules.IDIndexOveruse)
	if len(fx.NewStatements) != 1 || fx.NewStatements[0] != "DROP INDEX little" {
		t.Errorf("fix = %+v", fx)
	}
	fx = fixFor(t, `
		CREATE TABLE t (id INT PRIMARY KEY, zone VARCHAR(5));
		SELECT id FROM t WHERE zone = 'a';
		SELECT id FROM t WHERE zone = 'b';
	`, rules.IDIndexUnderuse)
	if len(fx.NewStatements) != 1 || fx.NewStatements[0] != "CREATE INDEX idx_t_zone ON t (zone)" {
		t.Errorf("fix = %+v", fx)
	}
}

func TestFixDistinctJoinToExists(t *testing.T) {
	fx := fixFor(t, `
		SELECT DISTINCT a.x FROM a JOIN b ON a.id = b.aid;
	`, rules.IDDistinctJoin)
	if len(fx.Rewrites) != 1 {
		t.Fatalf("fix = %+v", fx)
	}
	got := fx.Rewrites[0].Fixed
	if !strings.Contains(got, "WHERE EXISTS((SELECT 1 FROM b WHERE a.id = b.aid))") &&
		!strings.Contains(got, "WHERE EXISTS (SELECT 1 FROM b WHERE a.id = b.aid)") {
		t.Errorf("rewritten = %q", got)
	}
	if strings.Contains(got, "DISTINCT") || strings.Contains(got, "JOIN") {
		t.Errorf("join/distinct not removed: %q", got)
	}
}

func TestFixDistinctJoinAmbiguousIsTextual(t *testing.T) {
	fx := fixFor(t, "SELECT DISTINCT * FROM a JOIN b ON a.id = b.aid", rules.IDDistinctJoin)
	if fx.Automated() {
		t.Errorf("ambiguous select star must be textual: %+v", fx)
	}
}

func TestFixRoundingErrors(t *testing.T) {
	fx := fixFor(t, "CREATE TABLE o (id INT PRIMARY KEY, total FLOAT)", rules.IDRoundingErrors)
	if len(fx.NewStatements) != 1 || !strings.Contains(fx.NewStatements[0], "ALTER COLUMN total NUMERIC") {
		t.Errorf("fix = %+v", fx)
	}
}

func TestTextualOnlyRules(t *testing.T) {
	cases := map[string]string{
		rules.IDGenericPrimaryKey: "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		rules.IDAdjacencyList:     "CREATE TABLE emp (id INT PRIMARY KEY, mgr INT REFERENCES emp(id))",
		rules.IDReadablePassword:  "CREATE TABLE acc (id INT PRIMARY KEY, password VARCHAR(20))",
		rules.IDOrderByRand:       "SELECT * FROM t ORDER BY RAND() LIMIT 1",
		rules.IDPatternMatching:   "SELECT * FROM t WHERE name LIKE '%x%'",
	}
	for ruleID, sql := range cases {
		fx := fixFor(t, sql, ruleID)
		if fx.Textual == "" {
			t.Errorf("%s: no textual guidance", ruleID)
		}
	}
}

func TestImpactedQueries(t *testing.T) {
	e, findings := run(t, `
		CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, User_IDs TEXT);
		SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';
		SELECT User_IDs FROM Tenants WHERE Tenant_ID = 'T1';
		SELECT Tenant_ID FROM Tenants WHERE Tenant_ID = 'T2';
	`)
	for _, f := range findings {
		if f.RuleID == rules.IDMultiValuedAttribute && f.QueryIndex == 1 {
			fx := e.Repair(f)
			// Query 2 touches User_IDs and is impacted; query 3 is not.
			if len(fx.Impacted) == 0 {
				t.Fatalf("no impacted queries: %+v", fx)
			}
			for _, qi := range fx.Impacted {
				if qi == 3 {
					t.Errorf("query 3 wrongly impacted")
				}
			}
			return
		}
	}
	t.Fatal("MVA finding on query 1 not found")
}

func TestRepairAllCoversEveryFinding(t *testing.T) {
	e, findings := run(t, `
		CREATE TABLE t (id INT PRIMARY KEY, total FLOAT, password VARCHAR(10));
		SELECT * FROM t ORDER BY RAND();
		INSERT INTO t VALUES (1, 2.5, 'pw');
	`)
	if len(findings) == 0 {
		t.Fatal("no findings to repair")
	}
	for _, f := range findings {
		if fx := e.Repair(f); !fx.Automated() && fx.Textual == "" {
			t.Errorf("finding %s has neither rewrite nor textual fix", fx.Finding.RuleID)
		}
	}
}

func TestFixDataRulesProduceStatements(t *testing.T) {
	ctx := appctx.BuildFromSQL("CREATE TABLE e (id INT PRIMARY KEY, at TIMESTAMP)", nil, appctx.DefaultConfig())
	e := New(ctx)
	fx := e.Repair(rules.Finding{RuleID: rules.IDMissingTimezone, Table: "e", Column: "at", QueryIndex: -1})
	if len(fx.NewStatements) != 1 || !strings.Contains(fx.NewStatements[0], "TIMESTAMP WITH TIME ZONE") {
		t.Errorf("fix = %+v", fx)
	}
	fx = e.Repair(rules.Finding{RuleID: rules.IDRedundantColumn, Table: "e", Column: "at", QueryIndex: -1})
	if len(fx.NewStatements) != 1 || !strings.Contains(fx.NewStatements[0], "DROP COLUMN at") {
		t.Errorf("fix = %+v", fx)
	}
	fx = e.Repair(rules.Finding{RuleID: rules.IDNoDomainConstraint, Table: "e", Column: "at", QueryIndex: -1})
	if len(fx.NewStatements) != 1 || !strings.Contains(fx.NewStatements[0], "ADD CONSTRAINT") {
		t.Errorf("fix = %+v", fx)
	}
}

func TestUnknownRuleFallsBack(t *testing.T) {
	ctx := appctx.BuildFromSQL("", nil, appctx.DefaultConfig())
	fx := New(ctx).Repair(rules.Finding{RuleID: "future-rule", Message: "something"})
	if fx.Textual == "" {
		t.Error("unknown rule must produce textual guidance")
	}
}

func TestPatternToken(t *testing.T) {
	cases := map[string]string{
		"%U1%":              "U1",
		"[[:<:]]U1[[:>:]]":  "U1",
		"%bob@example.com%": "bob@example.com",
		"%a%b%":             "", // multiple tokens: not extractable
		"prefix%":           "prefix",
	}
	for in, want := range cases {
		if got := patternToken(in); got != want {
			t.Errorf("patternToken(%q) = %q, want %q", in, got, want)
		}
	}
}
