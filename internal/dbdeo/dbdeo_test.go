package dbdeo

import (
	"slices"
	"testing"

	"sqlcheck/internal/rules"
)

func types(fs []Finding) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		out[f.RuleID] = true
	}
	return out
}

func TestSupports11Types(t *testing.T) {
	if len(Types) != 11 {
		t.Fatalf("types = %d, want 11", len(Types))
	}
	if !slices.Contains(Types, rules.IDGodTable) || slices.Contains(Types, rules.IDColumnWildcard) {
		t.Error("Types misreports")
	}
}

func TestDetectMVAAndPattern(t *testing.T) {
	fs := Detect([]string{`SELECT * FROM t WHERE user_ids LIKE '%U1%'`})
	tt := types(fs)
	if !tt[rules.IDMultiValuedAttribute] || !tt[rules.IDPatternMatching] {
		t.Errorf("findings = %+v", fs)
	}
}

func TestDbdeoFalsePositives(t *testing.T) {
	// Prefix LIKE on an id column is index-friendly and not an MVA,
	// but dbdeo flags it — the FP behavior the paper measures.
	fs := Detect([]string{`SELECT * FROM t WHERE order_id LIKE 'ORD-2020%'`})
	tt := types(fs)
	if !tt[rules.IDMultiValuedAttribute] {
		t.Error("dbdeo should FP on prefix LIKE over id column")
	}
	// Type-parameter commas inflate dbdeo's god-table comma counting.
	fs = Detect([]string{`CREATE TABLE prices (id INT PRIMARY KEY, a NUMERIC(10,2), b NUMERIC(10,2), c NUMERIC(10,2), d NUMERIC(10,2), e NUMERIC(10,2), f ENUM('x','y','z'))`})
	if !types(fs)[rules.IDGodTable] {
		t.Error("dbdeo should FP god-table on type parameter commas")
	}
	// Legitimate numeric-suffixed columns look like data-in-metadata.
	fs = Detect([]string{`CREATE TABLE files (id INT PRIMARY KEY, sha256 VARCHAR(64), utf8 TEXT, addr1 VARCHAR(80), addr2 VARCHAR(80))`})
	if !types(fs)[rules.IDDataInMetadata] {
		t.Error("dbdeo should FP data-in-metadata on hash/address columns")
	}
	// parent_id referencing ANOTHER table is not an adjacency list.
	fs = Detect([]string{`CREATE TABLE child (id INT PRIMARY KEY, parent_id INT REFERENCES parents(id))`})
	if !types(fs)[rules.IDAdjacencyList] {
		t.Error("dbdeo should FP adjacency-list on parent_id naming")
	}
}

func TestDbdeoFalseNegatives(t *testing.T) {
	// CHECK IN-list enumeration: dbdeo only knows ENUM(.
	fs := Detect([]string{`CREATE TABLE u (id INT PRIMARY KEY, role VARCHAR(5) CHECK (role IN ('R1','R2')))`})
	if types(fs)[rules.IDEnumeratedTypes] {
		t.Error("dbdeo unexpectedly caught CHECK IN-list")
	}
	// MVA on a column without 'id' in the name.
	fs = Detect([]string{`SELECT * FROM t WHERE assignees LIKE '%bob%'`})
	if types(fs)[rules.IDMultiValuedAttribute] {
		t.Error("dbdeo unexpectedly caught non-id list column")
	}
	// Unsupported types are never reported.
	fs = Detect([]string{`SELECT * FROM t ORDER BY RAND()`, `INSERT INTO t VALUES (1)`})
	if len(fs) != 0 {
		t.Errorf("unsupported types flagged: %+v", fs)
	}
}

func TestNoPrimaryKeyAndClone(t *testing.T) {
	fs := Detect([]string{
		"CREATE TABLE a (x INT)",
		"CREATE TABLE b (x INT PRIMARY KEY)",
		"CREATE TABLE sales_2020 (x INT PRIMARY KEY)",
	})
	byStmt := map[int]map[string]bool{}
	for _, f := range fs {
		if byStmt[f.StatementIndex] == nil {
			byStmt[f.StatementIndex] = map[string]bool{}
		}
		byStmt[f.StatementIndex][f.RuleID] = true
	}
	if !byStmt[0][rules.IDNoPrimaryKey] {
		t.Error("missing pk not flagged")
	}
	if byStmt[1][rules.IDNoPrimaryKey] {
		t.Error("pk table flagged")
	}
	if !byStmt[2][rules.IDCloneTable] {
		t.Error("numbered table not flagged")
	}
}

func TestIndexOveruseStateful(t *testing.T) {
	d := New()
	stmts := []string{
		"CREATE INDEX i1 ON t (a)",
		"CREATE INDEX i2 ON t (b)",
		"CREATE INDEX i3 ON t (c)",
		"CREATE INDEX i4 ON t (d)",
		"CREATE INDEX other ON u (x)",
	}
	fs := d.DetectAll(stmts)
	count := 0
	for _, f := range fs {
		if f.RuleID == rules.IDIndexOveruse {
			count++
			if f.StatementIndex != 3 {
				t.Errorf("flagged statement %d", f.StatementIndex)
			}
		}
	}
	if count != 1 {
		t.Errorf("overuse findings = %d, want 1 (the 4th index)", count)
	}
}

func TestRoundingAndFloatDetection(t *testing.T) {
	fs := Detect([]string{"CREATE TABLE t (id INT PRIMARY KEY, price FLOAT)"})
	if !types(fs)[rules.IDRoundingErrors] {
		t.Error("float not flagged")
	}
}

func TestPatternMatchingPerStatement(t *testing.T) {
	fs := Detect([]string{
		"SELECT * FROM t WHERE a LIKE 'x%'",
		"SELECT * FROM t WHERE b LIKE 'y%'",
	})
	n := 0
	for _, f := range fs {
		if f.RuleID == rules.IDPatternMatching {
			n++
		}
	}
	if n != 2 {
		t.Errorf("pattern-matching findings = %d, want 2: %+v", n, fs)
	}
}
