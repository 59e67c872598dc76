package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sqlcheck/internal/exec"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/storage"
)

// registryDB builds a 12-row tenants fixture through the executor.
func registryDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("app")
	script := `CREATE TABLE tenants (id INT PRIMARY KEY, user_ids TEXT);`
	for i := 1; i <= 12; i++ {
		script += fmt.Sprintf("INSERT INTO tenants VALUES (%d, 'U%d,U%d,U%d');", i, i, i+1, i+2)
	}
	for _, stmt := range parser.ParseAll(script) {
		if _, err := exec.Run(db, stmt); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	db := registryDB(t)
	if err := r.Register("app", db); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("app", db); !errors.Is(err, ErrDatabaseExists) {
		t.Errorf("duplicate register: %v", err)
	}
	if err := r.Register("", db); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil database accepted")
	}
	if got, ok := r.Get("app"); !ok || got != db {
		t.Error("Get did not return the live handle")
	}
	if _, err := r.Resolve("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve("ghost"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("unknown resolve: %v", err)
	}
	if names := r.Names(); !reflect.DeepEqual(names, []string{"app"}) {
		t.Errorf("names = %v", names)
	}
	st := r.Stats()
	if st.Databases != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !r.Unregister("app") || r.Unregister("app") {
		t.Error("unregister")
	}
}

// TestEngineResolvesDBName: a workload naming a registered database
// produces the same result as attaching the handle directly, and the
// engine profiles a snapshot (metrics count it), never the handle.
func TestEngineResolvesDBName(t *testing.T) {
	e := NewEngine(DefaultOptions(), 2)
	db := registryDB(t)
	if err := e.Registry().Register("app", db); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT * FROM tenants WHERE user_ids LIKE '%U5%'`

	byName, err := e.DetectWorkloads(context.Background(), []Workload{{SQL: sql, DBName: "app"}})
	if err != nil {
		t.Fatal(err)
	}
	direct := Detect(parser.ParseAll(sql), db, DefaultOptions())
	if !reflect.DeepEqual(byName[0].Findings, direct.Findings) {
		t.Errorf("registry-resolved findings differ:\n%v\nvs\n%v", byName[0].Findings, direct.Findings)
	}
	if !byName[0].Context.HasData() {
		t.Error("no data profiles on registry-resolved workload")
	}
	if byName[0].Context.DB == db {
		t.Error("analysis context holds the live handle, not a snapshot")
	}
	m := e.Metrics()
	if m.Registry.Hits != 1 || m.Registry.Databases != 1 || m.Snapshots != 1 {
		t.Errorf("metrics = registry %+v snapshots %d", m.Registry, m.Snapshots)
	}
}

func TestEngineWorkloadResolutionErrors(t *testing.T) {
	e := NewEngine(DefaultOptions(), 1)
	if _, err := e.DetectWorkloads(context.Background(), []Workload{{SQL: "SELECT 1", DBName: "nope"}}); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("unknown DBName: %v", err)
	}
	db := registryDB(t)
	if err := e.Registry().Register("app", db); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DetectWorkloads(context.Background(), []Workload{{SQL: "SELECT 1", DBName: "app", DB: db}}); err == nil {
		t.Error("DB and DBName together accepted")
	}
	if m := e.Metrics(); m.Registry.Misses != 1 {
		t.Errorf("misses = %d", m.Registry.Misses)
	}
}

// TestRegistryNameCanonicalization: the key form is shared by every
// operation, so a name that registers is reachable (and deletable) by
// the same string, padded or not.
func TestRegistryNameCanonicalization(t *testing.T) {
	r := NewRegistry()
	db := registryDB(t)
	if err := r.Register(" padded ", db); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("padded"); !ok {
		t.Error("trimmed lookup missed")
	}
	if _, err := r.Resolve(" padded "); err != nil {
		t.Errorf("padded resolve: %v", err)
	}
	if !r.Unregister(" padded ") {
		t.Error("padded unregister missed")
	}
}

// TestSnapshotDatabaseRejectsDDL: the read-only contract holds for
// the whole SQL surface — including statements that mutate the
// database rather than a table (CREATE/DROP/ALTER), which would
// otherwise smuggle mutable tables into a frozen view.
func TestSnapshotDatabaseRejectsDDL(t *testing.T) {
	db := registryDB(t)
	snap := db.Snapshot()
	for _, stmt := range []string{
		"INSERT INTO tenants VALUES (99, 'U1')",
		"UPDATE tenants SET user_ids = 'x' WHERE id = 1",
		"DELETE FROM tenants WHERE id = 1",
		"CREATE TABLE other (id INT)",
		"DROP TABLE tenants",
		"ALTER TABLE tenants ADD COLUMN extra INT",
		"CREATE INDEX ix_u ON tenants (user_ids)",
	} {
		if _, err := exec.RunSQL(snap, stmt); !errors.Is(err, storage.ErrFrozen) {
			t.Errorf("%q on snapshot: err = %v, want ErrFrozen", stmt, err)
		}
	}
	if _, err := exec.RunSQL(snap, "SELECT * FROM tenants WHERE id = 1"); err != nil {
		t.Errorf("SELECT on quiesced snapshot: %v", err)
	}
	if tab := snap.Table("tenants"); tab == nil || tab.Len() != 12 {
		t.Error("snapshot contents disturbed by rejected statements")
	}
}

// TestBatchSharesSnapshotPerDatabase: workloads naming (or attaching)
// the same database within one batch analyze one shared snapshot —
// one capture, one consistent state.
func TestBatchSharesSnapshotPerDatabase(t *testing.T) {
	e := NewEngine(DefaultOptions(), 2)
	db := registryDB(t)
	if err := e.Registry().Register("app", db); err != nil {
		t.Fatal(err)
	}
	res, err := e.DetectWorkloads(context.Background(), []Workload{
		{SQL: "SELECT * FROM tenants", DBName: "app"},
		{SQL: "SELECT id FROM tenants WHERE id = 1", DBName: "app"},
		{SQL: "SELECT user_ids FROM tenants", DB: db},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Snapshots != 1 {
		t.Errorf("snapshots = %d, want 1 shared across the batch", m.Snapshots)
	}
	if m.Registry.Hits != 2 {
		t.Errorf("registry hits = %d, want one per named workload", m.Registry.Hits)
	}
	if res[0].Context.DB != res[1].Context.DB || res[1].Context.DB != res[2].Context.DB {
		t.Error("workloads on one database analyzed different snapshots")
	}
}

// TestInlineWorkloadDBSnapshotted: even directly attached databases
// are analyzed through a snapshot, so DML executed on the handle
// mid-analysis cannot skew the report.
func TestInlineWorkloadDBSnapshotted(t *testing.T) {
	e := NewEngine(DefaultOptions(), 1)
	db := registryDB(t)
	res, err := e.DetectWorkloads(context.Background(), []Workload{{SQL: "SELECT * FROM tenants", DB: db}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Context.DB == db {
		t.Error("context holds the live handle")
	}
	if res[0].Context.DB.Table("tenants") == nil || !res[0].Context.DB.Table("tenants").Frozen() {
		t.Error("context database is not a frozen snapshot")
	}
	if m := e.Metrics(); m.Snapshots != 1 {
		t.Errorf("snapshots = %d", m.Snapshots)
	}
}
