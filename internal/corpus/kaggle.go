package corpus

import (
	"fmt"

	"sqlcheck/internal/rules"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
	"sqlcheck/internal/xrand"
)

// KaggleDB is one synthetic database with its seeded anti-pattern
// ground truth.
type KaggleDB struct {
	Name string
	DB   *storage.Database
	// Seeded maps rule ID -> number of seeded instances.
	Seeded map[string]int
}

// TotalSeeded sums the seeded instances.
func (k *KaggleDB) TotalSeeded() int {
	n := 0
	for _, c := range k.Seeded {
		n += c
	}
	return n
}

// kaggleSpec encodes the paper's Table 6: database name and the AP
// type mix detected in it. Counts are distributed over the listed
// types (first listed types absorb the remainder), matching the
// per-database totals of the appendix.
type kaggleSpec struct {
	name  string
	total int
	types []string
}

// Aliases for brevity in the spec table.
const (
	kNoPK   = rules.IDNoPrimaryKey
	kGenPK  = rules.IDGenericPrimaryKey
	kDIM    = rules.IDDataInMetadata
	kIDT    = rules.IDIncorrectDataType
	kMTZ    = rules.IDMissingTimezone
	kMVA    = rules.IDMultiValuedAttribute
	kDenorm = rules.IDDenormalizedTable
	kInfo   = rules.IDInformationDuplication
	kRed    = rules.IDRedundantColumn
)

// kaggleSpecs mirrors paper Table 6 (31 databases, 200 APs total).
var kaggleSpecs = []kaggleSpec{
	{"board-games", 12, []string{kNoPK, kDIM, kIDT}},
	{"pennsylvania-safe-schools", 1, []string{kNoPK}},
	{"soccer-dataset", 20, []string{kGenPK, kDIM, kMTZ, kMVA}},
	{"sf-bay-area-bike-share", 11, []string{kNoPK, kGenPK, kIDT, kMTZ, kDenorm}},
	{"us-baby-names", 2, []string{kGenPK}},
	{"pitchfork-music", 10, []string{kNoPK, kMTZ, kInfo, kDenorm}},
	{"indian-university-research", 17, []string{kNoPK, kIDT, kRed, kMVA}},
	{"whatcd-hiphop", 3, []string{kNoPK, kMVA}},
	{"snap-meme-tracker", 1, []string{kMTZ}},
	{"nips-papers", 4, []string{kGenPK, kDenorm}},
	{"us-wildfires", 2, []string{kNoPK, kRed}},
	{"crossvalidated-questions", 3, []string{kNoPK}},
	{"history-of-baseball", 41, []string{kNoPK, kDIM, kIDT, kMVA}},
	{"twitter-us-airline-sentiment", 2, []string{kDenorm}},
	{"hillary-clinton-emails", 8, []string{kGenPK, kIDT}},
	{"septa-regional-rail", 2, []string{kIDT, kMTZ}},
	{"us-consumer-finance-complaints", 9, []string{kNoPK, kIDT, kMVA, kDenorm}},
	{"gop-debate-twitter-sentiment", 1, []string{kGenPK}},
	{"sf-salaries", 2, []string{kGenPK, kDenorm}},
	{"freight-matrix-transportation", 5, []string{kNoPK, kDIM, kRed}},
	{"wdi-data", 9, []string{kNoPK, kMVA}},
	{"amazon-movie-reviews", 2, []string{kNoPK, kMVA}},
	{"uk-arms-export-license", 3, []string{kNoPK}},
	{"amazon-fine-food-reviews", 1, []string{kGenPK}},
	{"stackoverflow-question-favourites", 1, []string{kMVA}},
	{"iron-march", 1, []string{kRed}},
	{"csharp-methods-doc-comments", 4, []string{kGenPK}},
	{"pesticide-data-program", 13, []string{kNoPK, kIDT, kRed}},
	{"monty-python-flying-circus", 4, []string{kNoPK, kMTZ, kDenorm}},
	{"twitter-black-panther", 0, nil},
	{"us-election-2016", 6, []string{kNoPK, kDIM, kDenorm}},
}

// KaggleSuiteOptions configures the suite.
type KaggleSuiteOptions struct {
	Seed uint64
	// RowsPerTable controls table sizes (default 120).
	RowsPerTable int
}

// KaggleSuite builds the 31 synthetic databases of Table 6.
func KaggleSuite(opts KaggleSuiteOptions) []*KaggleDB {
	if opts.Seed == 0 {
		opts.Seed = 31
	}
	if opts.RowsPerTable == 0 {
		opts.RowsPerTable = 120
	}
	r := xrand.New(opts.Seed)
	var out []*KaggleDB
	for _, spec := range kaggleSpecs {
		out = append(out, buildKaggleDB(spec, r, opts.RowsPerTable))
	}
	return out
}

// buildKaggleDB seeds one database with exactly spec.total findings
// distributed round-robin over spec.types.
func buildKaggleDB(spec kaggleSpec, r *xrand.Rand, rows int) *KaggleDB {
	k := &KaggleDB{Name: spec.name, DB: storage.NewDatabase(spec.name), Seeded: map[string]int{}}
	b := &kaggleBuilder{db: k.DB, r: r, rows: rows}
	if spec.total == 0 || len(spec.types) == 0 {
		// A clean database: one well-designed table.
		b.cleanTable("main")
		return k
	}
	for i := 0; i < spec.total; i++ {
		ruleID := spec.types[i%len(spec.types)]
		b.seed(ruleID)
		k.Seeded[ruleID]++
	}
	return k
}

type kaggleBuilder struct {
	db   *storage.Database
	r    *xrand.Rand
	rows int
	seq  int
}

func (b *kaggleBuilder) fresh(base string) string {
	b.seq++
	return fmt.Sprintf("%s_%c%c", base, 'a'+byte(b.seq%26), 'a'+byte((b.seq/26)%26))
}

// cleanTable creates a well-designed table with realistic data.
func (b *kaggleBuilder) cleanTable(base string) *storage.Table {
	name := b.fresh(base)
	t := b.db.CreateTable(name, []storage.ColumnDef{
		{Name: name + "_id", Class: schema.ClassInteger},
		{Name: "label", Class: schema.ClassChar},
		{Name: "recorded", Class: schema.ClassTimeTZ},
	})
	if err := t.SetPrimaryKey(name + "_id"); err != nil {
		panic(err)
	}
	for i := 0; i < b.rows; i++ {
		t.MustInsert(storage.Int(int64(i)), storage.Str(fmt.Sprintf("L%d-%d", i%37, b.r.Intn(1000))), storage.TimeTZ(int64(i)*1e6, 0))
	}
	return t
}

// seed injects exactly one instance of the given data AP.
func (b *kaggleBuilder) seed(ruleID string) {
	switch ruleID {
	case kNoPK:
		name := b.fresh("flat")
		t := b.db.CreateTable(name, []storage.ColumnDef{
			{Name: "code", Class: schema.ClassChar},
			{Name: "val", Class: schema.ClassInteger},
		})
		for i := 0; i < b.rows; i++ {
			t.MustInsert(storage.Str(fmt.Sprintf("c%d", i)), storage.Int(int64(b.r.Intn(10000))))
		}
	case kGenPK:
		name := b.fresh("generic")
		t := b.db.CreateTable(name, []storage.ColumnDef{
			{Name: "id", Class: schema.ClassInteger},
			{Name: "payload", Class: schema.ClassChar},
		})
		if err := t.SetPrimaryKey("id"); err != nil {
			panic(err)
		}
		for i := 0; i < b.rows; i++ {
			t.MustInsert(storage.Int(int64(i)), storage.Str(fmt.Sprintf("p%d-%d", i, b.r.Intn(500))))
		}
	case kDIM:
		name := b.fresh("pivoted")
		cols := []storage.ColumnDef{{Name: name + "_id", Class: schema.ClassInteger}}
		for q := 1; q <= 4; q++ {
			cols = append(cols, storage.ColumnDef{Name: fmt.Sprintf("q%d", q), Class: schema.ClassInteger})
		}
		t := b.db.CreateTable(name, cols)
		if err := t.SetPrimaryKey(name + "_id"); err != nil {
			panic(err)
		}
		for i := 0; i < b.rows; i++ {
			t.MustInsert(storage.Int(int64(i)),
				storage.Int(int64(b.r.Intn(5))), storage.Int(int64(b.r.Intn(5))),
				storage.Int(int64(b.r.Intn(5))), storage.Int(int64(b.r.Intn(5))))
		}
	case kIDT:
		b.hostColumn("num_text", schema.ClassText, func(i int) storage.Value {
			return storage.Str(fmt.Sprintf("%d", 100+i*3))
		})
	case kMTZ:
		b.hostColumn("logged_at", schema.ClassTimeNoTZ, func(i int) storage.Value {
			return storage.Time(int64(i) * 1e6)
		})
	case kMVA:
		b.hostColumn("member_ids", schema.ClassText, func(i int) storage.Value {
			return storage.Str(fmt.Sprintf("M%d,M%d,M%d", i, i+7, i+13))
		})
	case kRed:
		b.hostColumn("locale", schema.ClassChar, func(i int) storage.Value {
			return storage.Str("en-us")
		})
	case rules.IDNoDomainConstraint:
		b.hostColumn("rating", schema.ClassInteger, func(i int) storage.Value {
			return storage.Int(int64(i%5 + 1))
		})
	case kInfo:
		// birth_year + age pair on a fresh table (cross-column).
		name := b.fresh("persons")
		t := b.db.CreateTable(name, []storage.ColumnDef{
			{Name: name + "_id", Class: schema.ClassInteger},
			{Name: "birth_year", Class: schema.ClassInteger},
			{Name: "age", Class: schema.ClassInteger},
		})
		if err := t.SetPrimaryKey(name + "_id"); err != nil {
			panic(err)
		}
		for i := 0; i < b.rows; i++ {
			year := 1950 + i%50
			t.MustInsert(storage.Int(int64(i)), storage.Int(int64(year)), storage.Int(int64(2020-year)))
		}
	case kDenorm:
		name := b.fresh("addresses")
		t := b.db.CreateTable(name, []storage.ColumnDef{
			{Name: name + "_id", Class: schema.ClassInteger},
			{Name: "city", Class: schema.ClassChar},
			{Name: "zip", Class: schema.ClassChar},
		})
		if err := t.SetPrimaryKey(name + "_id"); err != nil {
			panic(err)
		}
		cities := []string{"Rome", "Oslo", "Lima", "Kyiv"}
		for i := 0; i < b.rows; i++ {
			c := i % len(cities)
			t.MustInsert(storage.Int(int64(i)), storage.Str(cities[c]), storage.Str(fmt.Sprintf("Z%04d", c)))
		}
	default:
		// Unknown seed type: create a clean table so totals still add
		// up structurally, but record nothing.
		b.cleanTable("misc")
	}
}

// hostColumn adds a single AP-bearing column to a host table (creating
// a fresh host every few columns). The host's other columns are clean.
func (b *kaggleBuilder) hostColumn(base string, class schema.TypeClass, gen func(i int) storage.Value) {
	col := fmt.Sprintf("%s_%d", base, b.seq)
	b.seq++
	// Rebuild a fresh host table each time: storage tables cannot grow
	// columns in place without ALTER, and independent tables keep the
	// seeds isolated.
	name := b.fresh("host")
	t := b.db.CreateTable(name, []storage.ColumnDef{
		{Name: name + "_key", Class: schema.ClassInteger},
		{Name: "filler", Class: schema.ClassChar},
		{Name: col, Class: class},
	})
	if err := t.SetPrimaryKey(name + "_key"); err != nil {
		panic(err)
	}
	for i := 0; i < b.rows; i++ {
		t.MustInsert(storage.Int(int64(i)), storage.Str(fmt.Sprintf("f%d-%d", i%41, b.r.Intn(999))), gen(i))
	}
}
