package storage

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/schema"
)

func usersTable(db *Database) *Table {
	t := db.CreateTable("users", []ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "name", Class: schema.ClassChar},
		{Name: "email", Class: schema.ClassChar},
	})
	if err := t.SetPrimaryKey("id"); err != nil {
		panic(err)
	}
	return t
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull")
	}
	if Int(3).String() != "3" || Str("x").String() != "x" || Bool(true).String() != "true" {
		t.Error("String rendering")
	}
	if f, ok := Str("3.5").AsFloat(); !ok || f != 3.5 {
		t.Error("AsFloat string")
	}
	if _, ok := Str("abc").AsFloat(); ok {
		t.Error("AsFloat non-numeric")
	}
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("numeric cross-kind compare")
	}
	if Compare(Str("a"), Str("b")) != -1 {
		t.Error("string compare")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
	if !Equal(Int(5), Int(5)) || Equal(Int(5), Int(6)) {
		t.Error("int equality")
	}
	if Equal(Str("5"), Int(5)) != true {
		t.Error("coercible string/number equality")
	}
	if Equal(Str("x"), Int(5)) {
		t.Error("non-coercible equality")
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	a := EncodeKey(Str("a"), Str("b"))
	b := EncodeKey(Str("ab"), Str(""))
	if a == b {
		t.Error("EncodeKey not injective for string splits")
	}
	if EncodeKey(Int(1)) == EncodeKey(Str("1")) {
		t.Error("EncodeKey must separate kinds")
	}
}

func TestInsertFetchScan(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	for i := 0; i < 300; i++ {
		u.MustInsert(Int(int64(i)), Str(fmt.Sprintf("user%d", i)), Str("e@x.com"))
	}
	if u.Len() != 300 {
		t.Fatalf("len = %d", u.Len())
	}
	r, err := u.Fetch(42)
	if err != nil || r[1].S != "user42" {
		t.Fatalf("fetch = %v, %v", r, err)
	}
	count := 0
	u.Scan(func(id int64, r Row) bool { count++; return true })
	if count != 300 {
		t.Errorf("scan count = %d", count)
	}
	// Page cost: 300 rows = 3 pages; scan should touch each page once.
	u.ResetIO()
	u.Scan(func(id int64, r Row) bool { return true })
	if got := u.IOStats().PageReads; got != 3 {
		t.Errorf("scan page reads = %d, want 3", got)
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	u.MustInsert(Int(1), Str("a"), Str("e"))
	_, err := u.Insert(Row{Int(1), Str("b"), Str("e")})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want duplicate key", err)
	}
	_, err = u.Insert(Row{Null(), Str("b"), Str("e")})
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want not null", err)
	}
}

func TestArityError(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	_, err := u.Insert(Row{Int(1)})
	if !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v", err)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	if _, err := u.CreateIndex("u_email", true, "email"); err != nil {
		t.Fatal(err)
	}
	u.MustInsert(Int(1), Str("a"), Str("a@x.com"))
	_, err := u.Insert(Row{Int(2), Str("b"), Str("a@x.com")})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignKeyEnforced(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	h := db.CreateTable("hosting", []ColumnDef{
		{Name: "user_id", Class: schema.ClassInteger},
		{Name: "tenant_id", Class: schema.ClassChar},
	})
	if err := h.AddForeignKey("fk_u", []string{"user_id"}, "users", []string{"id"}, "CASCADE"); err != nil {
		t.Fatal(err)
	}
	u.MustInsert(Int(1), Str("a"), Str("e"))
	if _, err := h.Insert(Row{Int(1), Str("T1")}); err != nil {
		t.Fatalf("valid fk insert: %v", err)
	}
	_, err := h.Insert(Row{Int(99), Str("T1")})
	if !errors.Is(err, ErrForeignKey) {
		t.Fatalf("err = %v", err)
	}
	// NULL fk values are permitted.
	if _, err := h.Insert(Row{Null(), Str("T2")}); err != nil {
		t.Fatalf("null fk insert: %v", err)
	}
}

func TestOnDeleteCascade(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	h := db.CreateTable("hosting", []ColumnDef{
		{Name: "user_id", Class: schema.ClassInteger},
		{Name: "tenant_id", Class: schema.ClassChar},
	})
	h.AddForeignKey("fk_u", []string{"user_id"}, "users", []string{"id"}, "CASCADE")
	uid := u.MustInsert(Int(1), Str("a"), Str("e"))
	h.MustInsert(Int(1), Str("T1"))
	h.MustInsert(Int(1), Str("T2"))
	if err := u.Delete(uid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if h.Len() != 0 {
		t.Errorf("cascade left %d rows", h.Len())
	}
}

func TestOnDeleteRestrictAndSetNull(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	r := db.CreateTable("restricting", []ColumnDef{{Name: "user_id", Class: schema.ClassInteger}})
	r.AddForeignKey("fk_r", []string{"user_id"}, "users", []string{"id"}, "RESTRICT")
	uid := u.MustInsert(Int(1), Str("a"), Str("e"))
	r.MustInsert(Int(1))
	if err := u.Delete(uid); !errors.Is(err, ErrRestrict) {
		t.Fatalf("restrict err = %v", err)
	}

	db2 := NewDatabase("test2")
	u2 := usersTable(db2)
	s := db2.CreateTable("nullable", []ColumnDef{{Name: "user_id", Class: schema.ClassInteger}})
	s.AddForeignKey("fk_s", []string{"user_id"}, "users", []string{"id"}, "SET NULL")
	uid2 := u2.MustInsert(Int(1), Str("a"), Str("e"))
	sid := s.MustInsert(Int(1))
	if err := u2.Delete(uid2); err != nil {
		t.Fatalf("set null delete: %v", err)
	}
	row, _ := s.Fetch(sid)
	if !row[0].IsNull() {
		t.Errorf("fk column not nulled: %v", row[0])
	}
}

func TestCheckInList(t *testing.T) {
	db := NewDatabase("test")
	u := db.CreateTable("u", []ColumnDef{{Name: "role", Class: schema.ClassChar}})
	if err := u.AddCheckInList("role_check", "role", []string{"R1", "R2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Row{Str("R1")}); err != nil {
		t.Fatalf("valid: %v", err)
	}
	if _, err := u.Insert(Row{Str("R9")}); !errors.Is(err, ErrCheck) {
		t.Fatalf("err = %v", err)
	}
	// Adding a constraint that existing data violates fails.
	if err := u.AddCheckInList("strict", "role", []string{"R2"}); !errors.Is(err, ErrCheck) {
		t.Fatalf("validation err = %v", err)
	}
	if !u.DropCheck("role_check") {
		t.Error("DropCheck existing = false")
	}
	if u.DropCheck("role_check") {
		t.Error("DropCheck repeated = true")
	}
	if _, err := u.Insert(Row{Str("R9")}); err != nil {
		t.Errorf("after drop: %v", err)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	u.CreateIndex("u_name", false, "name")
	id := u.MustInsert(Int(1), Str("old"), Str("e"))
	if err := u.Update(id, Row{Int(1), Str("new"), Str("e")}); err != nil {
		t.Fatal(err)
	}
	ix := u.Indexes()[0]
	if got := ix.Tree().Get(EncodeKey(Str("old"))); got != nil {
		t.Errorf("old key still indexed: %v", got)
	}
	if got := ix.Tree().Get(EncodeKey(Str("new"))); len(got) != 1 || got[0] != id {
		t.Errorf("new key missing: %v", got)
	}
	// Update to a duplicate pk is refused.
	u.MustInsert(Int(2), Str("x"), Str("e"))
	if err := u.Update(id, Row{Int(2), Str("new"), Str("e")}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("dup pk update err = %v", err)
	}
}

func TestDeleteRemovesFromIndexes(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	u.CreateIndex("u_name", false, "name")
	id := u.MustInsert(Int(1), Str("gone"), Str("e"))
	if err := u.Delete(id); err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 {
		t.Error("live count")
	}
	if _, err := u.Fetch(id); !errors.Is(err, ErrNoRow) {
		t.Error("fetch deleted")
	}
	if got := u.Indexes()[0].Tree().Get(EncodeKey(Str("gone"))); got != nil {
		t.Errorf("index entry remains: %v", got)
	}
	if err := u.Delete(id); !errors.Is(err, ErrNoRow) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestCreateIndexOnExistingDataAndUniqueViolation(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	u.MustInsert(Int(1), Str("dup"), Str("e"))
	u.MustInsert(Int(2), Str("dup"), Str("e"))
	if _, err := u.CreateIndex("uniq_name", true, "name"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique build err = %v", err)
	}
	ix, err := u.CreateIndex("name_ix", false, "name")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Tree().Get(EncodeKey(Str("dup"))); len(got) != 2 {
		t.Errorf("index entries = %v", got)
	}
	if !u.DropIndex("name_ix") || u.DropIndex("name_ix") {
		t.Error("DropIndex")
	}
}

func TestIndexOnLeading(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	u.CreateIndex("ix_ne", false, "name", "email")
	if u.IndexOnLeading(u.ColIndex("id")) == nil {
		t.Error("pk not found as leading index")
	}
	if u.IndexOnLeading(u.ColIndex("name")) == nil {
		t.Error("composite leading column not found")
	}
	if u.IndexOnLeading(u.ColIndex("email")) != nil {
		t.Error("non-leading column matched")
	}
}

func TestBufferPoolBehavior(t *testing.T) {
	db := NewDatabase("test")
	u := usersTable(db)
	for i := 0; i < PageRows*4; i++ {
		u.MustInsert(Int(int64(i)), Str("n"), Str("e"))
	}
	u.ResetIO()
	u.Fetch(0)
	u.Fetch(1) // same page: cache hit
	st := u.IOStats()
	if st.PageReads != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Thrash with a 1-page pool.
	u.SetBufferPages(1)
	u.Fetch(0)
	u.Fetch(int64(PageRows * 2))
	u.Fetch(0)
	if got := u.IOStats().PageReads; got != 3 {
		t.Errorf("thrash reads = %d, want 3", got)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	ddl := `
	CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name VARCHAR(20) NOT NULL, Role VARCHAR(5) CHECK (Role IN ('R1','R2')));
	CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, Zone VARCHAR(10));
	CREATE TABLE Hosting (
		User_ID VARCHAR(10) REFERENCES Users(User_ID) ON DELETE CASCADE,
		Tenant_ID VARCHAR(10) REFERENCES Tenants(Tenant_ID),
		PRIMARY KEY (User_ID, Tenant_ID)
	);
	CREATE INDEX idx_zone ON Tenants (Zone);
	`
	cat := schema.FromStatements(parser.ParseAll(ddl))
	db := NewDatabase("app")
	for _, ts := range cat.Tables() {
		if _, err := db.CreateTableFromSchema(ts); err != nil {
			t.Fatalf("CreateTableFromSchema(%s): %v", ts.Name, err)
		}
	}
	// Data obeys constraints end-to-end.
	db.Table("Users").MustInsert(Str("U1"), Str("Alice"), Str("R1"))
	db.Table("Tenants").MustInsert(Str("T1"), Str("Z1"))
	db.Table("Hosting").MustInsert(Str("U1"), Str("T1"))
	if _, err := db.Table("Hosting").Insert(Row{Str("U9"), Str("T1")}); !errors.Is(err, ErrForeignKey) {
		t.Errorf("fk err = %v", err)
	}
	if _, err := db.Table("Users").Insert(Row{Str("U2"), Str("Bob"), Str("R9")}); !errors.Is(err, ErrCheck) {
		t.Errorf("check err = %v", err)
	}
	// Reflection reproduces the catalog.
	back := db.Reflect()
	ut := back.Table("users")
	if ut == nil || len(ut.PrimaryKey) != 1 || ut.PrimaryKey[0] != "User_ID" {
		t.Fatalf("reflected users = %+v", ut)
	}
	if got := ut.Column("Role").CheckInValues; len(got) != 2 {
		t.Errorf("reflected check = %v", got)
	}
	ht := back.Table("hosting")
	if len(ht.ForeignKeys) != 2 || !ht.HasPrimaryKey() {
		t.Errorf("reflected hosting = %+v", ht)
	}
	tt := back.Table("tenants")
	if len(tt.Indexes) != 1 || tt.Indexes[0].Columns[0] != "Zone" {
		t.Errorf("reflected index = %+v", tt.Indexes)
	}
}

// Property: after any sequence of inserts and deletes, Len matches the
// number of rows the scan yields, and every scanned row is fetchable.
func TestLenScanConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		db := NewDatabase("p")
		tb := db.CreateTable("t", []ColumnDef{{Name: "v", Class: schema.ClassInteger}})
		var ids []int64
		for _, op := range ops {
			if op%4 == 0 && len(ids) > 0 {
				id := ids[0]
				ids = ids[1:]
				if err := tb.Delete(id); err != nil {
					return false
				}
			} else {
				id, err := tb.Insert(Row{Int(int64(op))})
				if err != nil {
					return false
				}
				ids = append(ids, id)
			}
		}
		n := 0
		ok := true
		tb.Scan(func(id int64, r Row) bool {
			n++
			if _, err := tb.Fetch(id); err != nil {
				ok = false
			}
			return true
		})
		return ok && n == tb.Len() && n == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDatabaseTableManagement(t *testing.T) {
	db := NewDatabase("d")
	db.CreateTable("a", []ColumnDef{{Name: "x"}})
	db.CreateTable("b", []ColumnDef{{Name: "y"}})
	if len(db.Tables()) != 2 || db.Table("A") == nil {
		t.Error("table registry")
	}
	if !db.DropTable("a") || db.DropTable("a") {
		t.Error("DropTable")
	}
	if len(db.Tables()) != 1 {
		t.Error("order maintenance")
	}
}

// Property: EncodeKey is injective over random value tuples — two
// different tuples never collide, so index lookups are exact.
func TestEncodeKeyInjectiveProperty(t *testing.T) {
	toVals := func(xs []int16, ss []string) []Value {
		var out []Value
		for _, x := range xs {
			out = append(out, Int(int64(x)))
		}
		for _, s := range ss {
			out = append(out, Str(s))
		}
		return out
	}
	f := func(xa []int16, sa []string, xb []int16, sb []string) bool {
		va, vb := toVals(xa, sa), toVals(xb, sb)
		ka, kb := EncodeKey(va...), EncodeKey(vb...)
		same := len(va) == len(vb)
		if same {
			for i := range va {
				if va[i].Kind != vb[i].Kind || va[i].String() != vb[i].String() {
					same = false
					break
				}
			}
		}
		if same {
			return ka == kb
		}
		// Different tuples must not collide — unless a string contains
		// the separator byte 0x1f, which the encoding reserves.
		for _, s := range append(append([]string{}, sa...), sb...) {
			for i := 0; i < len(s); i++ {
				if s[i] == 0x1f {
					return true // reserved byte: skip the case
				}
			}
		}
		return ka != kb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is a total order on same-kind values (reflexive,
// antisymmetric, transitive on samples).
func TestCompareTotalOrderProperty(t *testing.T) {
	f := func(a, b, c int32) bool {
		va, vb, vc := Int(int64(a)), Int(int64(b)), Int(int64(c))
		if Compare(va, va) != 0 {
			return false
		}
		if Compare(va, vb) != -Compare(vb, va) {
			return false
		}
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 && Compare(va, vc) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRowLenMatchesAppendRow: RowLen sizes exactly what AppendRow
// writes, for every value kind and across varint length boundaries —
// the WAL allocates register records from this figure.
func TestRowLenMatchesAppendRow(t *testing.T) {
	long := string(make([]byte, 300))
	rows := []Row{
		{},
		{Null(), Bool(true), Bool(false), Float(-2.5), Str(""), Str("ada"), Str(long)},
		{Int(0), Int(63), Int(64), Int(-64), Int(-65), Int(1 << 40), Int(-1 << 62), Int(1<<63 - 1), Int(-1 << 63)},
		{Time(0), Time(-1_700_000_000_000_000), TimeTZ(1_700_000_000_000_000, 0), TimeTZ(5, -720), TimeTZ(-5, 840)},
	}
	for i, r := range rows {
		if got, want := RowLen(r), len(AppendRow(nil, r)); got != want {
			t.Errorf("row %d: RowLen = %d, AppendRow wrote %d bytes", i, got, want)
		}
	}
	f := func(i int64, s string, tz int16) bool {
		r := Row{Int(i), Str(s), Time(i), TimeTZ(i, tz)}
		return RowLen(r) == len(AppendRow(nil, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
