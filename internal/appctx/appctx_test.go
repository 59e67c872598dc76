package appctx

import (
	"testing"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

const appSQL = `
CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, Zone_ID VARCHAR(30) NOT NULL, Active BOOLEAN);
CREATE TABLE Questionnaire (Questionnaire_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER, Name VARCHAR(30), Editable BOOLEAN);
CREATE INDEX idx_zone ON Tenant (Zone_ID);
SELECT q.Name, q.Editable, t.Active FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID WHERE q.Editable = TRUE;
SELECT Tenant_ID FROM Tenant WHERE Zone_ID = 'Z1';
SELECT Tenant_ID FROM Tenant WHERE Zone_ID = 'Z2' AND Active = TRUE;
`

func TestBuildInterContext(t *testing.T) {
	ctx := BuildFromSQL(appSQL, nil, DefaultConfig())
	if !ctx.Inter() || ctx.HasData() {
		t.Fatal("mode flags")
	}
	if ctx.Schema.Table("tenant") == nil || ctx.Schema.Table("questionnaire") == nil {
		t.Fatal("schema from DDL missing tables")
	}
	if len(ctx.Facts) != 6 {
		t.Fatalf("facts = %d", len(ctx.Facts))
	}
	edges := ctx.JoinEdges()
	if len(edges) != 1 || edges[0].Count != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	// Edge normalized: questionnaire < tenant alphabetically.
	if edges[0].LeftTable != "questionnaire" || edges[0].RightTable != "tenant" {
		t.Errorf("edge order = %+v", edges[0])
	}
	if got := ctx.PredicateCount("tenant", "zone_id"); got != 2 {
		t.Errorf("zone predicates = %d", got)
	}
	// Join keys count as predicates.
	if got := ctx.PredicateCount("tenant", "tenant_id"); got != 1 {
		t.Errorf("join key predicates = %d", got)
	}
}

func TestBuildIntraContextIsBare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeIntra
	ctx := BuildFromSQL(appSQL, nil, cfg)
	if ctx.Inter() {
		t.Fatal("Inter() in intra mode")
	}
	if ctx.Schema.Len() != 0 {
		t.Error("schema built in intra mode")
	}
	if len(ctx.JoinEdges()) != 0 || ctx.PredicateCount("tenant", "zone_id") != 0 {
		t.Error("cross-query aggregates built in intra mode")
	}
	if len(ctx.Facts) != 6 {
		t.Error("facts must still be analyzed per statement")
	}
}

func TestBuildWithLiveDatabase(t *testing.T) {
	db := storage.NewDatabase("app")
	tab := db.CreateTable("users", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "role", Class: schema.ClassChar},
	})
	tab.SetPrimaryKey("id")
	for i := 0; i < 50; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Str("R1"))
	}
	ctx := BuildFromSQL("SELECT role FROM users WHERE id = 1", db, DefaultConfig())
	if !ctx.HasData() {
		t.Fatal("profiles missing with live db")
	}
	if ctx.Schema.Table("users") == nil {
		t.Fatal("schema not reflected")
	}
	p := ctx.Profile("USERS")
	if p == nil || p.Column("role").Distinct != 1 {
		t.Fatalf("profile = %+v", p)
	}
}

func TestJoinEdgeAggregation(t *testing.T) {
	sqlText := `
	SELECT * FROM a JOIN b ON a.x = b.y;
	SELECT * FROM b JOIN a ON b.y = a.x;
	`
	ctx := BuildFromSQL(sqlText, nil, DefaultConfig())
	edges := ctx.JoinEdges()
	if len(edges) != 1 || edges[0].Count != 2 {
		t.Fatalf("edges = %+v (reversed joins must merge)", edges)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.GodTableColumns != 10 || cfg.TooManyJoins != 4 || cfg.Mode != ModeInter {
		t.Errorf("cfg = %+v", cfg)
	}
}
