package core

import (
	"strings"
	"testing"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

func detect(t *testing.T, sql string) *Result {
	t.Helper()
	return DetectSQL(sql, nil, DefaultOptions())
}

func has(res *Result, ruleID string) bool {
	for _, f := range res.Findings {
		if f.RuleID == ruleID {
			return true
		}
	}
	return false
}

func count(res *Result, ruleID string) int {
	n := 0
	for _, f := range res.Findings {
		if f.RuleID == ruleID {
			n++
		}
	}
	return n
}

func TestRegistryComplete(t *testing.T) {
	all := rules.All()
	if len(all) != 27 {
		t.Fatalf("registered rules = %d, want 27 (Table 1's 26 + readable-password)", len(all))
	}
	byCat := map[rules.Category]int{}
	for _, r := range all {
		byCat[r.Category]++
		if r.Description == "" {
			t.Errorf("rule %s lacks description", r.ID)
		}
		if r.DetectQuery == nil && r.DetectSchema == nil && r.DetectData == nil {
			t.Errorf("rule %s has no detector", r.ID)
		}
	}
	if byCat[rules.Logical] != 7 || byCat[rules.Physical] != 6 || byCat[rules.Query] != 8 || byCat[rules.Data] != 6 {
		t.Errorf("category counts = %v", byCat)
	}
	if rules.ByID("multi-valued-attribute") == nil || rules.ByID("nope") != nil {
		t.Error("ByID")
	}
	if len(rules.ByCategory(rules.Query)) != 8 {
		t.Error("ByCategory")
	}
}

// --- Logical design rules ---

func TestMultiValuedAttributeQueryRule(t *testing.T) {
	res := detect(t, `SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]'`)
	if !has(res, rules.IDMultiValuedAttribute) {
		t.Error("word-boundary LIKE not flagged")
	}
	res = detect(t, `SELECT * FROM Tenants t JOIN Users u ON t.User_IDs LIKE '%' || u.User_ID || '%'`)
	if !has(res, rules.IDMultiValuedAttribute) {
		t.Error("pattern join not flagged")
	}
	res = detect(t, `INSERT INTO Tenant VALUES ('T1', 'Z1', 'U1,U2,U3')`)
	if !has(res, rules.IDMultiValuedAttribute) {
		t.Error("list literal insert not flagged")
	}
	// Regular LIKE on a non-list column: no MVA.
	res = detect(t, `SELECT * FROM Users WHERE Name LIKE '%smith%'`)
	if has(res, rules.IDMultiValuedAttribute) {
		t.Error("plain name search flagged as MVA")
	}
}

func TestMVAContextRefinementDropsNonStringColumns(t *testing.T) {
	// With schema context, LIKE on an integer-typed ids column is
	// impossible as an MVA: the inter-query context kills the FP.
	res := detect(t, `
		CREATE TABLE t (user_ids INTEGER);
		SELECT * FROM t WHERE user_ids LIKE '%1%';
	`)
	if has(res, rules.IDMultiValuedAttribute) {
		t.Error("integer column MVA not suppressed by schema context")
	}
}

func TestMVADataRule(t *testing.T) {
	db := storage.NewDatabase("d")
	tab := db.CreateTable("tenants", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "user_ids", Class: schema.ClassText},
	})
	tab.SetPrimaryKey("id")
	for i := 0; i < 60; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Str("U1,U2,U3"))
	}
	res := DetectSQL("SELECT id FROM tenants", db, DefaultOptions())
	found := false
	for _, f := range res.Findings {
		if f.RuleID == rules.IDMultiValuedAttribute && f.Detector == "data" {
			found = true
		}
	}
	if !found {
		t.Errorf("data rule missed comma lists; findings = %+v", res.Findings)
	}
}

func TestNoPrimaryKey(t *testing.T) {
	res := detect(t, "CREATE TABLE t (a INT, b TEXT)")
	if !has(res, rules.IDNoPrimaryKey) {
		t.Error("missing pk not flagged")
	}
	res = detect(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	if has(res, rules.IDNoPrimaryKey) {
		t.Error("pk table flagged")
	}
	res = detect(t, "CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a, b))")
	if has(res, rules.IDNoPrimaryKey) {
		t.Error("composite pk flagged")
	}
}

func TestNoForeignKeyInterQuery(t *testing.T) {
	// Paper Example 3: two DDLs plus a join reveal the missing FK.
	res := detect(t, `
		CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, Zone_ID VARCHAR(30), Active BOOLEAN);
		CREATE TABLE Questionnaire (Questionnaire_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER, Name VARCHAR(30), Editable BOOLEAN);
		SELECT q.Name FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID WHERE q.Editable = TRUE;
	`)
	if !has(res, rules.IDNoForeignKey) {
		t.Errorf("missing FK not detected; findings = %+v", res.Findings)
	}
	// With the FK declared there is no finding from the join edge.
	res = detect(t, `
		CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);
		CREATE TABLE Questionnaire (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER REFERENCES Tenant(Tenant_ID));
		SELECT * FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID;
	`)
	if has(res, rules.IDNoForeignKey) {
		t.Errorf("declared FK still flagged: %+v", res.Findings)
	}
	// Intra mode cannot see it (this is the paper's point).
	opts := DefaultOptions()
	opts.Config.Mode = appctx.ModeIntra
	res = DetectSQL(`
		CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);
		CREATE TABLE Questionnaire (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER);
		SELECT * FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID;
	`, nil, opts)
	if has(res, rules.IDNoForeignKey) {
		t.Error("intra mode detected an inter-query AP")
	}
}

func TestGenericPrimaryKey(t *testing.T) {
	res := detect(t, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	if !has(res, rules.IDGenericPrimaryKey) {
		t.Error("generic id pk not flagged")
	}
	res = detect(t, "CREATE TABLE t (tenant_id INT PRIMARY KEY, v TEXT)")
	if has(res, rules.IDGenericPrimaryKey) {
		t.Error("specific pk flagged")
	}
}

func TestDataInMetadata(t *testing.T) {
	res := detect(t, "CREATE TABLE survey (id INT PRIMARY KEY, q1 TEXT, q2 TEXT, q3 TEXT, q4 TEXT)")
	if !has(res, rules.IDDataInMetadata) {
		t.Error("column series not flagged")
	}
	res = detect(t, "CREATE TABLE plain (id INT PRIMARY KEY, name TEXT, addr2 TEXT)")
	if has(res, rules.IDDataInMetadata) {
		t.Error("single suffixed column flagged")
	}
}

func TestAdjacencyList(t *testing.T) {
	res := detect(t, "CREATE TABLE emp (id INT PRIMARY KEY, mgr INT REFERENCES emp(id))")
	if !has(res, rules.IDAdjacencyList) {
		t.Error("self-reference not flagged")
	}
	res = detect(t, "CREATE TABLE emp (id INT PRIMARY KEY, dept INT REFERENCES depts(id))")
	if has(res, rules.IDAdjacencyList) {
		t.Error("cross-table FK flagged")
	}
}

func TestGodTable(t *testing.T) {
	cols := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		cols = append(cols, "c"+strings.Repeat("x", i+1)+" INT")
	}
	res := detect(t, "CREATE TABLE wide ("+strings.Join(cols, ", ")+")")
	if !has(res, rules.IDGodTable) {
		t.Error("12-column table not flagged")
	}
	res = detect(t, "CREATE TABLE narrow (a INT, b INT)")
	if has(res, rules.IDGodTable) {
		t.Error("narrow table flagged")
	}
}

// --- Physical design rules ---

func TestRoundingErrors(t *testing.T) {
	res := detect(t, "CREATE TABLE orders (id INT PRIMARY KEY, total FLOAT)")
	if !has(res, rules.IDRoundingErrors) {
		t.Error("FLOAT money column not flagged")
	}
	res = detect(t, "CREATE TABLE orders (id INT PRIMARY KEY, total DECIMAL(10,2))")
	if has(res, rules.IDRoundingErrors) {
		t.Error("DECIMAL flagged")
	}
}

func TestEnumeratedTypes(t *testing.T) {
	res := detect(t, "CREATE TABLE u (role ENUM('a','b','c'))")
	if !has(res, rules.IDEnumeratedTypes) {
		t.Error("ENUM not flagged")
	}
	res = detect(t, "ALTER TABLE User ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R2','R3'))")
	if !has(res, rules.IDEnumeratedTypes) {
		t.Error("CHECK IN-list not flagged")
	}
	res = detect(t, "CREATE TABLE u (age INT CHECK (age > 0))")
	if has(res, rules.IDEnumeratedTypes) {
		t.Error("range check flagged as enum")
	}
}

func TestExternalDataStorage(t *testing.T) {
	res := detect(t, "CREATE TABLE docs (id INT PRIMARY KEY, file_path VARCHAR(255))")
	if !has(res, rules.IDExternalDataStorage) {
		t.Error("path column not flagged")
	}
}

func TestIndexOveruseExample5(t *testing.T) {
	// Paper Example 5, workload 1: composite index exists, queries use
	// pk; the single-column indexes are redundant prefixes.
	res := detect(t, `
		CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, Zone_ID VARCHAR(30), Active BOOLEAN);
		CREATE INDEX idx_zone_actv ON Tenant (Zone_ID, Active);
		CREATE INDEX idx_zone ON Tenant (Zone_ID);
		CREATE INDEX idx_actv ON Tenant (Active);
		SELECT Tenant_ID FROM Tenant WHERE Tenant_ID = 'T1' AND Active = 'True';
	`)
	if count(res, rules.IDIndexOveruse) < 2 {
		t.Errorf("overuse findings = %d, want >= 2 (prefix + unused): %+v",
			count(res, rules.IDIndexOveruse), res.Findings)
	}
}

func TestIndexUnderuse(t *testing.T) {
	res := detect(t, `
		CREATE TABLE t (id INT PRIMARY KEY, zone VARCHAR(10));
		SELECT id FROM t WHERE zone = 'Z1';
		SELECT id FROM t WHERE zone = 'Z2';
	`)
	if !has(res, rules.IDIndexUnderuse) {
		t.Errorf("unindexed hot column not flagged: %+v", res.Findings)
	}
	// Indexed column: no finding.
	res = detect(t, `
		CREATE TABLE t (id INT PRIMARY KEY, zone VARCHAR(10));
		CREATE INDEX iz ON t (zone);
		SELECT id FROM t WHERE zone = 'Z1';
		SELECT id FROM t WHERE zone = 'Z2';
	`)
	if has(res, rules.IDIndexUnderuse) {
		t.Error("indexed column flagged")
	}
}

func TestIndexUnderuseLowCardinalityFalsePositiveRemoved(t *testing.T) {
	// Fig 8c: a low-cardinality column would be flagged by query
	// analysis but the data rule suppresses it.
	db := storage.NewDatabase("d")
	tab := db.CreateTable("t", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "active", Class: schema.ClassBool},
	})
	tab.SetPrimaryKey("id")
	for i := 0; i < 100; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Bool(i%2 == 0))
	}
	workload := `
		SELECT id FROM t WHERE active = TRUE;
		SELECT id FROM t WHERE active = FALSE;
	`
	res := DetectSQL(workload, db, DefaultOptions())
	if has(res, rules.IDIndexUnderuse) {
		t.Errorf("low-cardinality column flagged despite data analysis: %+v", res.Findings)
	}
	// Without the database, the query-only analysis does flag it
	// (the false positive the paper describes).
	res = DetectSQL("CREATE TABLE t (id INT PRIMARY KEY, active BOOLEAN);"+workload, nil, DefaultOptions())
	if !has(res, rules.IDIndexUnderuse) {
		t.Error("query-only analysis should flag it (the known FP)")
	}
}

func TestCloneTable(t *testing.T) {
	res := detect(t, `
		CREATE TABLE sales_2019 (id INT PRIMARY KEY);
		CREATE TABLE sales_2020 (id INT PRIMARY KEY);
		CREATE TABLE sales_2021 (id INT PRIMARY KEY);
	`)
	if !has(res, rules.IDCloneTable) {
		t.Error("clone tables not flagged")
	}
	res = detect(t, "CREATE TABLE sales_2019 (id INT PRIMARY KEY); CREATE TABLE users (id INT PRIMARY KEY)")
	if has(res, rules.IDCloneTable) {
		t.Error("single numbered table flagged in inter mode")
	}
}

// --- Query rules ---

func TestColumnWildcard(t *testing.T) {
	if !has(detect(t, "SELECT * FROM t"), rules.IDColumnWildcard) {
		t.Error("SELECT * not flagged")
	}
	if has(detect(t, "SELECT a, b FROM t"), rules.IDColumnWildcard) {
		t.Error("explicit columns flagged")
	}
}

func TestConcatenateNulls(t *testing.T) {
	res := detect(t, `
		CREATE TABLE u (first VARCHAR(10) NOT NULL, middle VARCHAR(10), last VARCHAR(10) NOT NULL);
		SELECT first || ' ' || middle || ' ' || last FROM u;
	`)
	if !has(res, rules.IDConcatenateNulls) {
		t.Error("nullable concat not flagged")
	}
	for _, f := range res.Findings {
		if f.RuleID == rules.IDConcatenateNulls && (f.Column == "first" || f.Column == "last") {
			t.Errorf("NOT NULL column flagged: %+v", f)
		}
	}
}

func TestOrderByRandRule(t *testing.T) {
	if !has(detect(t, "SELECT * FROM t ORDER BY RAND() LIMIT 1"), rules.IDOrderByRand) {
		t.Error("ORDER BY RAND not flagged")
	}
}

func TestPatternMatchingRule(t *testing.T) {
	if !has(detect(t, "SELECT * FROM t WHERE a LIKE '%x%'"), rules.IDPatternMatching) {
		t.Error("leading wildcard not flagged")
	}
	if has(detect(t, "SELECT * FROM t WHERE a LIKE 'x%'"), rules.IDPatternMatching) {
		t.Error("prefix match flagged")
	}
	if !has(detect(t, "SELECT * FROM t WHERE a REGEXP '^x.*'"), rules.IDPatternMatching) {
		t.Error("regexp not flagged")
	}
}

func TestImplicitColumnsRule(t *testing.T) {
	if !has(detect(t, "INSERT INTO t VALUES (1, 2)"), rules.IDImplicitColumns) {
		t.Error("implicit insert not flagged")
	}
	if has(detect(t, "INSERT INTO t (a, b) VALUES (1, 2)"), rules.IDImplicitColumns) {
		t.Error("explicit insert flagged")
	}
}

func TestDistinctJoinRule(t *testing.T) {
	if !has(detect(t, "SELECT DISTINCT a.x FROM a JOIN b ON a.id = b.aid"), rules.IDDistinctJoin) {
		t.Error("distinct+join not flagged")
	}
	if has(detect(t, "SELECT DISTINCT x FROM a"), rules.IDDistinctJoin) {
		t.Error("plain distinct flagged")
	}
}

func TestTooManyJoinsRule(t *testing.T) {
	sql := `SELECT * FROM a
		JOIN b ON a.i = b.i
		JOIN c ON b.i = c.i
		JOIN d ON c.i = d.i
		JOIN e ON d.i = e.i`
	if !has(detect(t, sql), rules.IDTooManyJoins) {
		t.Error("4 joins not flagged at threshold 4")
	}
	if has(detect(t, "SELECT * FROM a JOIN b ON a.i = b.i"), rules.IDTooManyJoins) {
		t.Error("single join flagged")
	}
}

func TestReadablePassword(t *testing.T) {
	if !has(detect(t, "CREATE TABLE accounts (id INT PRIMARY KEY, password VARCHAR(30))"), rules.IDReadablePassword) {
		t.Error("password column not flagged")
	}
	if !has(detect(t, "SELECT * FROM accounts WHERE password = 'hunter2'"), rules.IDReadablePassword) {
		t.Error("password literal comparison not flagged")
	}
	if !has(detect(t, "INSERT INTO accounts (id, password) VALUES (1, 'hunter2')"), rules.IDReadablePassword) {
		t.Error("password literal insert not flagged")
	}
}

// --- Data rules ---

func dataDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("kagglish")
	events := db.CreateTable("events", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "happened_at", Class: schema.ClassTimeNoTZ},
		{Name: "amount_text", Class: schema.ClassText},
		{Name: "locale", Class: schema.ClassChar},
		{Name: "rating", Class: schema.ClassInteger},
	})
	events.SetPrimaryKey("id")
	for i := 0; i < 80; i++ {
		events.MustInsert(
			storage.Int(int64(i)),
			storage.Time(int64(i)*1e6),
			storage.Str("1234"),
			storage.Str("en-us"),
			storage.Int(int64(i%5+1)),
		)
	}
	people := db.CreateTable("people", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "city", Class: schema.ClassChar},
		{Name: "zip", Class: schema.ClassChar},
		{Name: "birth_year", Class: schema.ClassInteger},
		{Name: "age", Class: schema.ClassInteger},
	})
	people.SetPrimaryKey("id")
	cities := []string{"Rome", "Oslo", "Lima"}
	zips := []string{"00100", "0150", "15001"}
	for i := 0; i < 90; i++ {
		year := 1950 + i%40
		people.MustInsert(
			storage.Int(int64(i)),
			storage.Str(cities[i%3]),
			storage.Str(zips[i%3]),
			storage.Int(int64(year)),
			storage.Int(int64(2020-year)),
		)
	}
	return db
}

func TestDataRulesOnDatabase(t *testing.T) {
	res := DetectSQL("", dataDB(t), DefaultOptions())
	for _, want := range []string{
		rules.IDMissingTimezone,
		rules.IDIncorrectDataType,
		rules.IDRedundantColumn,
		rules.IDDenormalizedTable,
		rules.IDInformationDuplication,
		rules.IDNoDomainConstraint,
	} {
		if !has(res, want) {
			t.Errorf("data rule %s found nothing; findings = %v", want, CountByRule(res.Findings))
		}
	}
}

func TestNoDomainConstraintSuppressedByCheck(t *testing.T) {
	db := storage.NewDatabase("d")
	tab := db.CreateTable("r", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "rating", Class: schema.ClassInteger},
	})
	tab.SetPrimaryKey("id")
	tab.AddCheckInList("rating_domain", "rating", []string{"1", "2", "3", "4", "5"})
	for i := 0; i < 50; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Int(int64(i%5+1)))
	}
	res := DetectSQL("", db, DefaultOptions())
	if has(res, rules.IDNoDomainConstraint) {
		t.Error("constrained rating still flagged")
	}
}

// --- Orchestration behavior ---

func TestDedupeMergesDetectors(t *testing.T) {
	db := storage.NewDatabase("d")
	tab := db.CreateTable("tenants", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "user_ids", Class: schema.ClassText},
	})
	tab.SetPrimaryKey("id")
	for i := 0; i < 60; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Str("U1,U2,U3"))
	}
	res := DetectSQL("SELECT * FROM tenants WHERE user_ids LIKE '[[:<:]]U1[[:>:]]'", db, DefaultOptions())
	// MVA found by both query and data rules should not double-report
	// the same (rule, site, query) triple.
	seen := map[string]int{}
	for _, f := range res.Findings {
		seen[f.Key()]++
		if seen[f.Key()] > 1 {
			t.Errorf("duplicate finding key %s", f.Key())
		}
	}
}

func TestMinConfidenceFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.MinConfidence = 0.99
	res := DetectSQL("SELECT * FROM t", nil, opts)
	if len(res.Findings) != 0 {
		t.Errorf("high threshold should drop heuristics: %+v", res.Findings)
	}
}

func TestRuleFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.Rules = []string{rules.IDColumnWildcard}
	res := DetectSQL("SELECT * FROM t ORDER BY RAND()", nil, opts)
	if !has(res, rules.IDColumnWildcard) || has(res, rules.IDOrderByRand) {
		t.Errorf("rule filter not applied: %v", CountByRule(res.Findings))
	}
}

func TestIntraVsInterFindingCounts(t *testing.T) {
	// The §8.1 shape: intra-only flags more weak candidates on
	// ambiguous corpora (here: a numbered table name); inter mode
	// groups context and removes them while adding context-only rules.
	sql := `
		CREATE TABLE log_2020 (id INT PRIMARY KEY, msg TEXT);
		SELECT * FROM log_2020 WHERE msg LIKE '%err%';
	`
	intra := DefaultOptions()
	intra.Config.Mode = appctx.ModeIntra
	intra.MinConfidence = 0.3
	ri := DetectSQL(sql, nil, intra)
	inter := DefaultOptions()
	inter.MinConfidence = 0.3
	rn := DetectSQL(sql, nil, inter)
	if !has(ri, rules.IDCloneTable) {
		t.Error("intra mode should weakly flag numbered table")
	}
	if has(rn, rules.IDCloneTable) {
		t.Error("inter mode should suppress the lone numbered table")
	}
}

func TestCountHelpers(t *testing.T) {
	res := detect(t, "SELECT * FROM t; SELECT * FROM u")
	counts := CountByRule(res.Findings)
	if counts[rules.IDColumnWildcard] != 2 {
		t.Errorf("counts = %v", counts)
	}
}
