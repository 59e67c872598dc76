package profile

import (
	"context"
	"fmt"
	"testing"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

func tbl(name string, cols ...storage.ColumnDef) (*storage.Database, *storage.Table) {
	db := storage.NewDatabase("p")
	return db, db.CreateTable(name, cols)
}

func TestBasicStats(t *testing.T) {
	_, tab := tbl("t",
		storage.ColumnDef{Name: "n", Class: schema.ClassInteger},
		storage.ColumnDef{Name: "s", Class: schema.ClassChar})
	for i := 0; i < 100; i++ {
		var s storage.Value
		if i%10 == 0 {
			s = storage.Null()
		} else {
			s = storage.Str(fmt.Sprintf("v%d", i%3))
		}
		tab.MustInsert(storage.Int(int64(i)), s)
	}
	tp := ProfileTable(tab, Options{})
	cn := tp.Column("n")
	if cn.Rows != 100 || cn.Nulls != 0 || cn.Distinct != 100 {
		t.Errorf("n profile = %+v", cn)
	}
	if cn.Min != 0 || cn.Max != 99 {
		t.Errorf("n stats = min %v max %v", cn.Min, cn.Max)
	}
	cs := tp.Column("s")
	if cs.Nulls != 10 || cs.Distinct != 3 {
		t.Errorf("s profile = %+v", cs)
	}
	if cs.DistinctRatio() > 0.05 {
		t.Errorf("distinct ratio = %v", cs.DistinctRatio())
	}
	if cs.TopFreq < 30 {
		t.Errorf("top freq = %d", cs.TopFreq)
	}
}

func TestReservoirSampleDeterministicAndBounded(t *testing.T) {
	_, tab := tbl("t", storage.ColumnDef{Name: "v", Class: schema.ClassInteger})
	for i := 0; i < 5000; i++ {
		tab.MustInsert(storage.Int(int64(i)))
	}
	s1 := Sample(tab, Options{SampleSize: 100, Seed: 7})
	s2 := Sample(tab, Options{SampleSize: 100, Seed: 7})
	if len(s1) != 100 || len(s2) != 100 {
		t.Fatalf("sample sizes = %d, %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i][0].I != s2[i][0].I {
			t.Fatal("sampling not deterministic")
		}
	}
	s3 := Sample(tab, Options{SampleSize: 100, Seed: 8})
	same := true
	for i := range s1 {
		if s1[i][0].I != s3[i][0].I {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestDelimiterListDetection(t *testing.T) {
	_, tab := tbl("tenants", storage.ColumnDef{Name: "user_ids", Class: schema.ClassText})
	for i := 0; i < 50; i++ {
		tab.MustInsert(storage.Str(fmt.Sprintf("U%d,U%d,U%d", i, i+1, i+2)))
	}
	tp := ProfileTable(tab, Options{})
	c := tp.Column("user_ids")
	if got := c.FracOf(c.DelimList); got < 0.9 {
		t.Errorf("delim fraction = %v", got)
	}
	// Prose with commas must not count.
	_, tab2 := tbl("posts", storage.ColumnDef{Name: "body", Class: schema.ClassText})
	for i := 0; i < 50; i++ {
		tab2.MustInsert(storage.Str("Hello there, this is a long sentence, with clauses"))
	}
	tp2 := ProfileTable(tab2, Options{})
	c2 := tp2.Column("body")
	if got := c2.FracOf(c2.DelimList); got > 0.2 {
		t.Errorf("prose flagged as delimiter list: %v", got)
	}
}

func TestFormatInference(t *testing.T) {
	_, tab := tbl("f",
		storage.ColumnDef{Name: "num_text", Class: schema.ClassText},
		storage.ColumnDef{Name: "dt_notz", Class: schema.ClassText},
		storage.ColumnDef{Name: "dt_tz", Class: schema.ClassText},
		storage.ColumnDef{Name: "path", Class: schema.ClassText},
		storage.ColumnDef{Name: "email", Class: schema.ClassText},
		storage.ColumnDef{Name: "home_email", Class: schema.ClassText})
	for i := 0; i < 40; i++ {
		tab.MustInsert(
			storage.Str(fmt.Sprintf("%d", i*7)),
			storage.Str(fmt.Sprintf("2020-01-%02d 10:3%d:00", i%28+1, i%10)),
			storage.Str(fmt.Sprintf("2020-01-%02d 10:30:00+02:00", i%28+1)),
			storage.Str(fmt.Sprintf("/var/files/doc%d.pdf", i)),
			storage.Str(fmt.Sprintf("user%d@example.com", i)),
			storage.Str(fmt.Sprintf("/home/u%d@b.io", i)),
		)
	}
	tp := ProfileTable(tab, Options{})
	checks := []struct {
		col  string
		frac func(c *ColumnProfile) int
	}{
		{"num_text", func(c *ColumnProfile) int { return c.IntLike }},
		{"dt_notz", func(c *ColumnProfile) int { return c.DateTimeNoTZ }},
		{"path", func(c *ColumnProfile) int { return c.PathLike }},
	}
	for _, ch := range checks {
		c := tp.Column(ch.col)
		if got := c.FracOf(ch.frac(c)); got < 0.9 {
			t.Errorf("%s inferred fraction = %v, want >= 0.9", ch.col, got)
		}
	}
	// Time-zone strings and email addresses, a path-shaped one
	// included, count as none of the formats the rules read.
	for _, col := range []string{"dt_tz", "email", "home_email"} {
		c := tp.Column(col)
		if n := c.IntLike + c.FloatLike + c.DateLike + c.DateTimeNoTZ + c.PathLike; n != 0 {
			t.Errorf("%s counted %d values in a format: %+v", col, n, c)
		}
	}
}

func TestFunctionalDependencyDetection(t *testing.T) {
	// city -> zip duplication across many rows: denormalized.
	_, tab := tbl("addr",
		storage.ColumnDef{Name: "id", Class: schema.ClassInteger},
		storage.ColumnDef{Name: "city", Class: schema.ClassChar},
		storage.ColumnDef{Name: "zip", Class: schema.ClassChar})
	cities := []string{"Rome", "Oslo", "Lima"}
	zips := []string{"00100", "0150", "15001"}
	for i := 0; i < 90; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Str(cities[i%3]), storage.Str(zips[i%3]))
	}
	tp := ProfileTable(tab, Options{})
	found := false
	for _, fd := range tp.FDs {
		if fd.From == "city" && fd.To == "zip" {
			found = true
			if fd.Repetition < 10 {
				t.Errorf("repetition = %v", fd.Repetition)
			}
		}
		if fd.From == "id" {
			t.Errorf("unique column reported as FD source: %+v", fd)
		}
	}
	if !found {
		t.Errorf("city->zip FD not found: %+v", tp.FDs)
	}
}

func TestNoFDOnIndependentColumns(t *testing.T) {
	_, tab := tbl("ind",
		storage.ColumnDef{Name: "a", Class: schema.ClassChar},
		storage.ColumnDef{Name: "b", Class: schema.ClassInteger})
	for i := 0; i < 80; i++ {
		tab.MustInsert(storage.Str(fmt.Sprintf("g%d", i%4)), storage.Int(int64(i)))
	}
	tp := ProfileTable(tab, Options{})
	for _, fd := range tp.FDs {
		if fd.From == "a" && fd.To == "b" {
			t.Errorf("spurious FD: %+v", fd)
		}
	}
}

func TestDerivationDetection(t *testing.T) {
	_, tab := tbl("people",
		storage.ColumnDef{Name: "dob", Class: schema.ClassChar},
		storage.ColumnDef{Name: "birth_year", Class: schema.ClassChar},
		storage.ColumnDef{Name: "yob", Class: schema.ClassInteger},
		storage.ColumnDef{Name: "age", Class: schema.ClassInteger})
	for i := 0; i < 30; i++ {
		year := 1960 + i
		tab.MustInsert(
			storage.Str(fmt.Sprintf("%d-06-15", year)),
			storage.Str(fmt.Sprintf("%d", year)),
			storage.Int(int64(year)),
			storage.Int(int64(2020-year)),
		)
	}
	tp := ProfileTable(tab, Options{})
	var kinds []string
	for _, d := range tp.Derivations {
		kinds = append(kinds, d.From+"->"+d.To+":"+d.Kind)
	}
	want := map[string]bool{}
	for _, d := range tp.Derivations {
		want[d.Kind] = true
	}
	if !want["year-of"] {
		t.Errorf("year-of derivation missed: %v", kinds)
	}
	if !want["age-of"] {
		t.Errorf("age-of derivation missed: %v", kinds)
	}
}

func TestCopyDerivation(t *testing.T) {
	_, tab := tbl("c",
		storage.ColumnDef{Name: "a", Class: schema.ClassChar},
		storage.ColumnDef{Name: "b", Class: schema.ClassChar})
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("val%d", i)
		tab.MustInsert(storage.Str(v), storage.Str(v))
	}
	tp := ProfileTable(tab, Options{})
	found := false
	for _, d := range tp.Derivations {
		if d.Kind == "copy" {
			found = true
		}
	}
	if !found {
		t.Errorf("copy derivation missed: %+v", tp.Derivations)
	}
}

func TestProfileDatabaseCoversAllTables(t *testing.T) {
	db := storage.NewDatabase("d")
	db.CreateTable("a", []storage.ColumnDef{{Name: "x", Class: schema.ClassInteger}})
	db.CreateTable("b", []storage.ColumnDef{{Name: "y", Class: schema.ClassChar}})
	profiles := ProfileDatabase(db, Options{})
	if len(profiles) != 2 || profiles["a"] == nil || profiles["b"] == nil {
		t.Errorf("profiles = %v", profiles)
	}
}

func TestEmptyTableProfile(t *testing.T) {
	_, tab := tbl("empty", storage.ColumnDef{Name: "x", Class: schema.ClassInteger})
	tp := ProfileTable(tab, Options{})
	c := tp.Column("x")
	if c.Rows != 0 || c.DistinctRatio() != 1 || c.FracOf(c.IntLike) != 0 {
		t.Errorf("empty profile = %+v", c)
	}
}

func TestTimeValuesTZCounting(t *testing.T) {
	_, tab := tbl("ev",
		storage.ColumnDef{Name: "at", Class: schema.ClassTimeNoTZ},
		storage.ColumnDef{Name: "at_tz", Class: schema.ClassTimeTZ})
	for i := 0; i < 10; i++ {
		tab.MustInsert(storage.Time(int64(i)*1e6), storage.TimeTZ(int64(i)*1e6, 120))
	}
	tp := ProfileTable(tab, Options{})
	if tp.Column("at").DateTimeNoTZ != 10 {
		t.Errorf("no-tz count = %d", tp.Column("at").DateTimeNoTZ)
	}
	if tp.Column("at_tz").DateTimeNoTZ != 0 {
		t.Errorf("tz values counted as no-tz: %d", tp.Column("at_tz").DateTimeNoTZ)
	}
}

// countingCtx is a context whose Err flips to Canceled after a fixed
// number of Err calls — a deterministic stand-in for "the client went
// away mid-scan" that lets the test prove both the periodicity of the
// cancellation checks and the promptness of the stop without timing.
type countingCtx struct {
	context.Context
	calls    int
	cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestProfileTableContextCancelsMidScan: a profile of a large table
// must stop promptly when the context is canceled partway through the
// sampling scan, returning ctx.Err() and no profile.
func TestProfileTableContextCancelsMidScan(t *testing.T) {
	const rows = 100_000
	_, tab := tbl("big",
		storage.ColumnDef{Name: "id", Class: schema.ClassInteger},
		storage.ColumnDef{Name: "name", Class: schema.ClassChar})
	for i := 0; i < rows; i++ {
		tab.MustInsert(storage.Int(int64(i)), storage.Str(fmt.Sprintf("n%d", i)))
	}

	// Cancel on the third periodic check: the scan must abandon the
	// remaining ~97k rows rather than finish the pass.
	ctx := &countingCtx{Context: context.Background(), cancelAt: 3}
	tp, err := ProfileTableContext(ctx, tab, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tp != nil {
		t.Fatalf("canceled profile returned a result: %+v", tp)
	}
	// The scan checks every cancelCheckRows rows; hitting cancelAt=3
	// after only a few checks proves it did not scan the whole table.
	if maxChecks := rows/cancelCheckRows + 4; ctx.calls > maxChecks {
		t.Errorf("Err() called %d times; cancellation checks not periodic?", ctx.calls)
	}
	if ctx.calls > 8 {
		t.Errorf("Err() called %d times after cancellation; scan did not stop promptly", ctx.calls)
	}

	// Sanity: the same profile with a live context completes.
	tp, err = ProfileTableContext(context.Background(), tab, Options{})
	if err != nil || tp == nil || tp.RowsSampled != (Options{}).Normalized().SampleSize {
		t.Fatalf("uncanceled profile: tp=%v err=%v", tp, err)
	}
}
