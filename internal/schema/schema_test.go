package schema

import (
	"testing"

	"sqlcheck/internal/parser"
)

func build(t *testing.T, ddl string) *Schema {
	t.Helper()
	return FromStatements(parser.ParseAll(ddl))
}

func TestClassifyType(t *testing.T) {
	cases := map[string]TypeClass{
		"INT": ClassInteger, "integer": ClassInteger, "BIGINT": ClassInteger,
		"DECIMAL": ClassExactNumeric, "NUMERIC": ClassExactNumeric,
		"FLOAT": ClassApproxNumeric, "DOUBLE PRECISION": ClassApproxNumeric,
		"VARCHAR": ClassChar, "TEXT": ClassText, "BOOLEAN": ClassBool,
		"DATE": ClassDate, "TIMESTAMP": ClassTimeNoTZ, "DATETIME": ClassTimeNoTZ,
		"TIMESTAMP WITH TIME ZONE": ClassTimeTZ, "TIMESTAMPTZ": ClassTimeTZ,
		"ENUM": ClassEnum, "BLOB": ClassBlob, "WEIRD": ClassUnknown,
	}
	for in, want := range cases {
		if got := ClassifyType(in); got != want {
			t.Errorf("ClassifyType(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestFromStatementsBasic(t *testing.T) {
	s := build(t, `
		CREATE TABLE Tenant (
			Tenant_ID INTEGER PRIMARY KEY,
			Zone_ID VARCHAR(30) NOT NULL,
			Active BOOLEAN
		);
		CREATE INDEX idx_zone ON Tenant (Zone_ID);
	`)
	tab := s.Table("tenant")
	if tab == nil {
		t.Fatal("Tenant not found (case-insensitive lookup)")
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("columns = %d", len(tab.Columns))
	}
	if !tab.HasPrimaryKey() || tab.PrimaryKey[0] != "Tenant_ID" {
		t.Errorf("pk = %v", tab.PrimaryKey)
	}
	c := tab.Column("zone_id")
	if c == nil || !c.NotNull || c.Class != ClassChar {
		t.Errorf("zone_id = %+v", c)
	}
	if len(tab.Indexes) != 1 || tab.Indexes[0].Name != "idx_zone" {
		t.Errorf("indexes = %+v", tab.Indexes)
	}
	idx := tab.IndexedColumns()
	if !idx["tenant_id"] || !idx["zone_id"] || idx["active"] {
		t.Errorf("indexed columns = %v", idx)
	}
}

func TestForeignKeys(t *testing.T) {
	s := build(t, `
		CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY);
		CREATE TABLE Hosting (
			User_ID VARCHAR(10) REFERENCES Users(User_ID) ON DELETE CASCADE,
			Tenant_ID VARCHAR(10),
			FOREIGN KEY (Tenant_ID) REFERENCES Tenants(Tenant_ID),
			PRIMARY KEY (User_ID, Tenant_ID)
		);
	`)
	h := s.Table("Hosting")
	if len(h.ForeignKeys) != 2 {
		t.Fatalf("fks = %+v", h.ForeignKeys)
	}
	if h.ForeignKeys[0].RefTable != "Users" || h.ForeignKeys[0].OnDelete != "CASCADE" {
		t.Errorf("fk0 = %+v", h.ForeignKeys[0])
	}
	if len(h.PrimaryKey) != 2 {
		t.Errorf("pk = %v", h.PrimaryKey)
	}
}

func TestSelfReferencingFK(t *testing.T) {
	s := build(t, `CREATE TABLE emp (id INT PRIMARY KEY, mgr INT REFERENCES emp(id))`)
	if !s.Table("emp").SelfRefFK {
		t.Error("self-referencing FK not flagged")
	}
}

func TestCheckInValues(t *testing.T) {
	s := build(t, `CREATE TABLE u (Role VARCHAR(10) CHECK (Role IN ('R1','R2','R3')))`)
	c := s.Table("u").Column("role")
	if len(c.CheckInValues) != 3 || c.CheckInValues[0] != "R1" {
		t.Errorf("check values = %v", c.CheckInValues)
	}
}

func TestAlterAddCheckThenDrop(t *testing.T) {
	s := build(t, `
		CREATE TABLE User2 (Role VARCHAR(10));
		ALTER TABLE User2 ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R2','R3'));
	`)
	tab := s.Table("user2")
	if len(tab.Checks) != 1 || tab.Checks[0].Column != "Role" {
		t.Fatalf("checks = %+v", tab.Checks)
	}
	if got := tab.Column("Role").CheckInValues; len(got) != 3 {
		t.Fatalf("column mirror = %v", got)
	}
	ApplyDDL(s, parser.Parse("ALTER TABLE User2 DROP CONSTRAINT IF EXISTS User_Role_Check"))
	if len(tab.Checks) != 0 {
		t.Errorf("check not dropped: %+v", tab.Checks)
	}
	if got := tab.Column("Role").CheckInValues; got != nil {
		t.Errorf("column mirror not cleared: %v", got)
	}
}

func TestAlterColumnOps(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT);
		ALTER TABLE t ADD COLUMN b VARCHAR(5) NOT NULL;
		ALTER TABLE t DROP COLUMN a;
	`)
	tab := s.Table("t")
	if len(tab.Columns) != 1 || tab.Columns[0].Name != "b" {
		t.Fatalf("columns = %+v", tab.Columns)
	}
	ApplyDDL(s, parser.Parse("ALTER TABLE t RENAME TO t2"))
	if s.Table("t") != nil || s.Table("t2") == nil {
		t.Error("rename failed")
	}
}

func TestDropTableAndIndex(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT);
		CREATE INDEX i ON t (a);
		DROP INDEX i;
	`)
	if len(s.Table("t").Indexes) != 0 {
		t.Error("index not dropped")
	}
	ApplyDDL(s, parser.Parse("DROP TABLE t"))
	if s.Table("t") != nil || s.Len() != 0 {
		t.Error("table not dropped")
	}
}

func TestAlterUnknownTableCreatesStub(t *testing.T) {
	s := build(t, "ALTER TABLE ghost ADD COLUMN a INT")
	if s.Table("ghost") == nil || s.Table("ghost").Column("a") == nil {
		t.Error("stub table not created")
	}
}

func TestEnumColumn(t *testing.T) {
	s := build(t, "CREATE TABLE m (status ENUM('on','off'))")
	c := s.Table("m").Column("status")
	if c.Class != ClassEnum || len(c.TypeParams) != 2 {
		t.Errorf("enum column = %+v", c)
	}
}

func TestTablesOrderStable(t *testing.T) {
	s := build(t, "CREATE TABLE z (a INT); CREATE TABLE a (b INT); CREATE TABLE m (c INT)")
	names := []string{}
	for _, tb := range s.Tables() {
		names = append(names, tb.Name)
	}
	if names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Errorf("order = %v", names)
	}
	// Re-adding an existing table keeps its position.
	s.AddTable(&Table{Name: "Z"})
	if s.Tables()[0].Name != "Z" {
		t.Errorf("replacement lost position: %v", s.Tables()[0].Name)
	}
}

func TestTypeClassHelpers(t *testing.T) {
	if !ClassChar.IsStringy() || !ClassText.IsStringy() || ClassInteger.IsStringy() {
		t.Error("IsStringy")
	}
	if !ClassDate.IsTemporal() || !ClassTimeNoTZ.IsTemporal() || ClassBool.IsTemporal() {
		t.Error("IsTemporal")
	}
	if ClassEnum.String() != "enum" || TypeClass(99).String() != "unknown" {
		t.Error("String")
	}
}

// TestInListCheck: a CHECK (col IN (...)) of literals names its column
// and values; a negated list, another operator, or a list holding any
// non-literal matches nothing.
func TestInListCheck(t *testing.T) {
	if col, vals := InListCheck(parser.ParseExpr("role IN ('a', 'b')")); col != "role" || len(vals) != 2 {
		t.Errorf("InListCheck = %q %v", col, vals)
	}
	for _, bad := range []string{"role NOT IN ('a')", "role > 3", "role IN (x, y)", "role IN ('a', x)"} {
		if col, vals := InListCheck(parser.ParseExpr(bad)); col != "" {
			t.Errorf("InListCheck(%q) = %q %v, want no match", bad, col, vals)
		}
	}
}
