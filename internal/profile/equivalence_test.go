package profile

// Byte-identical-output guarantees for the single-pass profiler. The
// reference implementation below is the original (pre-rewrite)
// ProfileTableContext: clone-based reservoir, per-pass value
// re-rendering, regexp classification, and the full format cascade,
// whose time-zone and email cases now count nothing. The tests drive both
// implementations over adversarial and randomized tables and demand
// deeply equal profiles, and drive every hand-rolled classifier
// against its reference regex over adversarial and randomized
// strings. Together with the repo-level golden corpus this pins the
// rewrite's contract: same seed ⇒ same profile, bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
	"sqlcheck/internal/xrand"
)

// --- reference implementation (original code) -----------------------

// Reference format definitions: the executable specification of each
// byte-level scanner in classify.go (TestClassifierEquivalence and
// FuzzClassifierEquivalence hold each scanner to its regex). rePath
// is the one the profiler still runs, so it lives in profile.go.
var (
	reInt        = regexp.MustCompile(`^\s*-?\d+\s*$`)
	reFloat      = regexp.MustCompile(`^\s*-?\d+\.\d+([eE][-+]?\d+)?\s*$`)
	reDate       = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	reDateTime   = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}(:\d{2})?(\.\d+)?$`)
	reDateTimeTZ = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}(:\d{2})?(\.\d+)?\s*([zZ]|[-+]\d{2}:?\d{2})$`)
	reEmail      = regexp.MustCompile(`^[^@\s]+@[^@\s]+\.[^@\s]+$`)
	reHexish     = regexp.MustCompile(`^[0-9a-fA-F$./=+]{20,}$`)
)

// Sample draws a deterministic reservoir sample of row values from a
// table. The returned rows are copies, safe to hold and mutate.
// ProfileTableContext streams renderings instead of materializing
// rows but follows the identical reservoir schedule, so for one seed
// both observe the same sampled row set.
func Sample(t *storage.Table, opts Options) []storage.Row {
	opts = opts.withDefaults()
	r := xrand.New(opts.Seed)
	var reservoir []storage.Row
	n := 0
	t.ScanReadOnly(func(id int64, row storage.Row) bool {
		n++
		if len(reservoir) < opts.SampleSize {
			reservoir = append(reservoir, row.Clone())
			return true
		}
		if j := r.Intn(n); j < opts.SampleSize {
			reservoir[j] = row.Clone()
		}
		return true
	})
	return reservoir
}

func refDelimListLike(s string) bool {
	for _, d := range []string{",", ";", "|"} {
		parts := strings.Split(s, d)
		if len(parts) < 2 {
			continue
		}
		ok := 0
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if len(p) <= 24 && !strings.Contains(p, " ") {
				ok++
			}
		}
		if ok >= 2 && float64(ok) >= 0.8*float64(len(parts)) {
			return true
		}
	}
	return false
}

// refColumn is the reference's per-column accumulation state.
type refColumn struct {
	freq map[string]int
	nums []float64
}

// refObserve counts one sampled value into its column profile: the
// reference's regex cascade, with the cases whose counters are gone
// (time-zone strings, email addresses) still claiming their strings.
func refObserve(cp *ColumnProfile, st *refColumn, v storage.Value) {
	cp.Rows++
	if v.IsNull() {
		cp.Nulls++
		return
	}
	s := v.String()
	st.freq[s]++
	if f, ok := v.AsFloat(); ok && (v.Kind == storage.KindInt || v.Kind == storage.KindFloat || v.Kind == storage.KindString && (reInt.MatchString(s) || reFloat.MatchString(s))) {
		cp.NumericCount++
		st.nums = append(st.nums, f)
	}
	if v.Kind == storage.KindString {
		switch {
		case reInt.MatchString(s):
			cp.IntLike++
		case reFloat.MatchString(s):
			cp.FloatLike++
		case reDateTimeTZ.MatchString(s):
		case reDateTime.MatchString(s):
			cp.DateTimeNoTZ++
		case reDate.MatchString(s):
			cp.DateLike++
		case reEmail.MatchString(s):
		case rePath.MatchString(s):
			cp.PathLike++
		}
		if refDelimListLike(s) {
			cp.DelimList++
		}
		if len(s) > 0 && len(s) < 20 && !reHexish.MatchString(s) {
			cp.PlainTextish++
		}
	}
	if v.Kind == storage.KindTime && !v.TZKnown {
		cp.DateTimeNoTZ++
	}
}

// refFinish derives a column's distinct count, top value and range
// from its accumulated state.
func refFinish(cp *ColumnProfile, st *refColumn) {
	cp.Distinct = len(st.freq)
	for v, n := range st.freq {
		if n > cp.TopFreq || (n == cp.TopFreq && v < cp.TopValue) {
			cp.TopValue, cp.TopFreq = v, n
		}
	}
	if len(st.nums) > 0 {
		sort.Float64s(st.nums)
		cp.Min, cp.Max = st.nums[0], st.nums[len(st.nums)-1]
	}
}

func referenceProfile(t *storage.Table, opts Options) *TableProfile {
	opts = opts.withDefaults()
	rows := Sample(t, opts)
	tp := &TableProfile{Table: t.Name, RowsSampled: len(rows)}

	states := make([]*refColumn, len(t.Cols))
	for i, cd := range t.Cols {
		states[i] = &refColumn{freq: map[string]int{}}
		tp.Columns = append(tp.Columns, &ColumnProfile{Name: cd.Name, Class: cd.Class})
	}

	for _, row := range rows {
		for i, v := range row {
			refObserve(tp.Columns[i], states[i], v)
		}
	}

	for i, cp := range tp.Columns {
		refFinish(cp, states[i])
	}

	refFindFDs(tp, rows)
	refFindDerivations(tp, rows)
	return tp
}

func refFindFDs(tp *TableProfile, rows []storage.Row) {
	if len(rows) < 10 {
		return
	}
	n := len(tp.Columns)
	for a := 0; a < n; a++ {
		ca := tp.Columns[a]
		if ca.Distinct < 2 || ca.DistinctRatio() > 0.5 {
			continue
		}
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			cb := tp.Columns[b]
			if cb.Distinct < 2 {
				continue
			}
			mapping := map[string]string{}
			fd := true
			for _, row := range rows {
				va, vb := row[a], row[b]
				if va.IsNull() || vb.IsNull() {
					continue
				}
				ka, kb := va.String(), vb.String()
				if prev, ok := mapping[ka]; ok {
					if prev != kb {
						fd = false
						break
					}
				} else {
					mapping[ka] = kb
				}
			}
			if fd && len(mapping) >= 2 && cb.Distinct <= ca.Distinct {
				rep := float64(ca.NonNull()) / float64(ca.Distinct)
				if rep >= 2 {
					tp.FDs = append(tp.FDs, FunctionalDependency{
						From: ca.Name, To: cb.Name, Repetition: rep,
					})
				}
			}
		}
	}
}

func refFindDerivations(tp *TableProfile, rows []storage.Row) {
	if len(rows) < 5 {
		return
	}
	n := len(tp.Columns)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			kind := refDetectDerivation(rows, a, b)
			if kind != "" {
				tp.Derivations = append(tp.Derivations, Derivation{
					From: tp.Columns[a].Name, To: tp.Columns[b].Name, Kind: kind,
				})
			}
		}
	}
}

func refDetectDerivation(rows []storage.Row, a, b int) string {
	const currentYear = 2020
	checked := 0
	copies, caseCopies, years, ages := 0, 0, 0, 0
	for _, row := range rows {
		va, vb := row[a], row[b]
		if va.IsNull() || vb.IsNull() {
			continue
		}
		checked++
		sa, sb := va.String(), vb.String()
		if sa == sb {
			copies++
		}
		if !strings.EqualFold(sa, sb) {
		} else if sa != sb {
			caseCopies++
		}
		if len(sa) >= 4 && (reDate.MatchString(sa) || reDateTime.MatchString(sa)) && sb == sa[:4] {
			years++
		}
		if fa, oka := va.AsFloat(); oka {
			if fb, okb := vb.AsFloat(); okb {
				if fa > 1900 && fa < float64(currentYear) && fb == float64(currentYear)-fa {
					ages++
				}
			}
		}
	}
	if checked < 5 {
		return ""
	}
	frac := func(n int) float64 { return float64(n) / float64(checked) }
	switch {
	case frac(copies) >= 0.95:
		return "copy"
	case frac(caseCopies) >= 0.95:
		return "case-copy"
	case frac(years) >= 0.95:
		return "year-of"
	case frac(ages) >= 0.95:
		return "age-of"
	default:
		return ""
	}
}

// --- classifier equivalence -----------------------------------------

// adversarialStrings covers every boundary the classifiers scan:
// optional groups present/absent/malformed, RE2-\s vs Unicode-space
// distinctions, class members in unexpected positions, minimum
// lengths, and plain noise.
var adversarialStrings = []string{
	"", " ", "-", "--1", "1", "-1", " 12 ", "\t-7\n", "1 2", "12a", "a12",
	"\v1\v", "\f1\f", "1\r", "+1", "1.", ".5", "1.5", "-1.5", " 1.5 ",
	"1.5e3", "1.5E+3", "1.5e-03", "1.5e", "1.5e+", "1.5e3x", "1.5e3 ", "1..5",
	"1.5.6", "1,5", "Inf", "-Inf", "Infinity", "NaN", "nan", "0x1F", "0x1p4",
	"2020-01-02", "2020-1-02", "2020-01-2", "2020-01-022", "x020-01-02",
	"2020-01-02 10:30", "2020-01-02T10:30", "2020-01-02t10:30",
	"2020-01-02 10:30:45", "2020-01-02 10:30:4", "2020-01-02 10:3",
	"2020-01-02 10:30.5", "2020-01-02 10:30:45.123", "2020-01-02 10:30:45.",
	"2020-01-02 10:30:456", "2020-01-02 10:30:45.123456",
	"2020-01-02 10:30z", "2020-01-02 10:30Z", "2020-01-02 10:30 Z",
	"2020-01-02 10:30:45+02:00", "2020-01-02 10:30:45-0200",
	"2020-01-02 10:30:45+02:0", "2020-01-02 10:30:45+2:00",
	"2020-01-02 10:30:45.5+02:00", "2020-01-02 10:30.5Z",
	"2020-01-02 10:30:45 +02:00", "2020-01-02 10:30:45\t+0200",
	"2020-01-02 10:30:45+020:0", "2020-01-02 10:30:45+02:000",
	"2020-01-0210:30", "2020-01-02 103:0",
	"a@b.c", "a@b.c.", "a@.b.c", ".a@b.c", "a@b..c", "a@b.", "a@.c", "@b.c",
	"a@", "@", "a@b@c.d", "a b@c.d", "a@b c.d", "a@b.c\t", "ä@ö.ü", "a@bc",
	"a@b.cd.ef", "aa@bb.cc", "/home/a@b.io", "./a@b.c",
	"/var/log/x.txt", "C:\\temp\\f", "./rel", "../up", ".hidden", "a.b/c",
	"file.jpg", "file.exe", "some/file.unknown", "x.csv", "-x.csv", "x-.csv",
	"a,b,c", "a, b, c", "a,b", "a|b|c", "a;b;c", "a,,b", ",,", "a,b c,d",
	"one, two words, three", "U1,U2,U3",
	"deadbeefdeadbeefdead", "deadbeefdeadbeefdea", "$./=+$./=+$./=+$./=+",
	"short", "0123456789012345678", "01234567890123456789",
	"héllo", "héllo,wörld", "\x80\xFF", "a\x00b", "１２３", "ｅmail@ｂ.ｃ",
}

func randString(r *xrand.Rand) string {
	alphabets := []string{
		"0123456789",
		"0123456789.-+eE \t",
		"0123456789-: TZz.+",
		"abc@. ",
		"abcdefghijklmnopqrstuvwxyz0123456789./\\:-_",
		"a,b;c| .",
		" \t\n\f\r\v",
		"0123456789abcdefABCDEF$./=+",
	}
	alpha := xrand.Pick(r, alphabets)
	n := r.Intn(28)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[r.Intn(len(alpha))])
	}
	return sb.String()
}

// classifierChecks pairs each hand-rolled classifier with its
// reference.
var classifierChecks = []struct {
	name string
	fast func(string) bool
	ref  func(string) bool
}{
	{"int", intLike, reInt.MatchString},
	{"float", floatLike, reFloat.MatchString},
	{"date", dateLike, reDate.MatchString},
	{"datetime-notz", dateTimeNoTZLike, reDateTime.MatchString},
	{"email", emailLike, reEmail.MatchString},
	{"path", pathLike, rePath.MatchString},
	{"delim-list", delimListLike, refDelimListLike},
}

// verifyClassifiers holds each classifier to its reference, and the
// profiler's whole format cascade (its precedence included) to the
// reference cascade on a one-cell column holding s.
func verifyClassifiers(t *testing.T, s string) {
	t.Helper()
	for _, c := range classifierChecks {
		if got, want := c.fast(s), c.ref(s); got != want {
			t.Errorf("%s(%q) = %v, reference regex says %v", c.name, s, got, want)
		}
	}
	v := storage.Str(s)
	var got, want ColumnProfile
	new(scratch).columnStats(&got, []cell{renderCell(v)})
	st := &refColumn{freq: map[string]int{}}
	refObserve(&want, st, v)
	refFinish(&want, st)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cascade(%q) = %+v, reference says %+v", s, got, want)
	}
}

func TestClassifierEquivalence(t *testing.T) {
	for _, s := range adversarialStrings {
		verifyClassifiers(t, s)
	}
	r := xrand.New(0xc1a551f7)
	for i := 0; i < 20000; i++ {
		verifyClassifiers(t, randString(r))
	}
}

// FuzzClassifierEquivalence runs the same checks on fuzzed strings,
// seeded from the adversarial pool.
func FuzzClassifierEquivalence(f *testing.F) {
	for _, s := range adversarialStrings {
		f.Add(s)
	}
	f.Fuzz(verifyClassifiers)
}

// --- whole-profile equivalence ---------------------------------------

// randValue draws from value distributions that exercise every
// classifier and both numeric coercion paths, plus nulls.
func randValue(r *xrand.Rand) storage.Value {
	switch r.Intn(12) {
	case 0:
		return storage.Null()
	case 1:
		return storage.Int(int64(r.Intn(2000)) - 50)
	case 2:
		return storage.Float(float64(r.Intn(1000))/7 - 3)
	case 3:
		return storage.Bool(r.Bool(0.5))
	case 4:
		return storage.Time(int64(r.Intn(1 << 30)))
	case 5:
		return storage.TimeTZ(int64(r.Intn(1<<30)), int16(r.Intn(720)-360))
	case 6:
		return storage.Str(fmt.Sprintf("%d", r.Intn(100000)-500))
	case 7:
		return storage.Str(fmt.Sprintf("2020-0%d-1%d 0%d:3%d:0%d",
			r.Intn(9)+1, r.Intn(9), r.Intn(9), r.Intn(9), r.Intn(9)))
	case 8:
		return storage.Str(fmt.Sprintf("u%d@example%d.com", r.Intn(40), r.Intn(9)))
	case 9:
		return storage.Str(fmt.Sprintf("a%d,b%d,c%d", r.Intn(7), r.Intn(5), r.Intn(3)))
	case 10:
		return storage.Str(randString(r))
	default:
		return storage.Str(xrand.Pick(r, adversarialStrings))
	}
}

// buildRandomTable assembles rows shaped to trigger FDs, derivations,
// copies, and year/age relationships alongside pure noise columns.
func buildRandomTable(r *xrand.Rand, rows int) *storage.Table {
	tab := storage.NewTable("rand", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "city", Class: schema.ClassChar},
		{Name: "zip", Class: schema.ClassChar},
		{Name: "city_copy", Class: schema.ClassChar},
		{Name: "dob", Class: schema.ClassChar},
		{Name: "birth_year", Class: schema.ClassChar},
		{Name: "yob", Class: schema.ClassInteger},
		{Name: "age", Class: schema.ClassInteger},
		{Name: "noise", Class: schema.ClassText},
	})
	for i := 0; i < rows; i++ {
		city := fmt.Sprintf("C%d", r.Intn(5))
		year := 1950 + r.Intn(60)
		row := storage.Row{
			storage.Int(int64(i)),
			storage.Str(city),
			storage.Str("Z-" + city),
			storage.Str(strings.ToUpper(city)),
			storage.Str(fmt.Sprintf("%d-06-15", year)),
			storage.Str(fmt.Sprintf("%d", year)),
			storage.Int(int64(year)),
			storage.Int(int64(2020 - year)),
			randValue(r),
		}
		// Sprinkle nulls over the structured columns too.
		if r.Bool(0.05) {
			row[r.Intn(len(row)-1)+1] = storage.Null()
		}
		if _, err := tab.Insert(row); err != nil {
			panic(err)
		}
	}
	return tab
}

// TestProfileMatchesReference: the streaming profiler must produce
// deeply equal output to the original clone-and-rescan implementation
// for identical seeds — across table sizes below, at, and far above
// the reservoir bound, and across seeds and sample sizes.
func TestProfileMatchesReference(t *testing.T) {
	cases := []struct {
		rows int
		opts Options
	}{
		{0, Options{}},
		{3, Options{}},
		{12, Options{}},
		{40, Options{SampleSize: 40}},
		{200, Options{SampleSize: 50, Seed: 11}},
		{200, Options{SampleSize: 50, Seed: 12}},
		{1200, Options{SampleSize: 100, Seed: 99}},
		{1200, Options{SampleSize: 1200}},
		{3000, Options{SampleSize: 64, Seed: 7}},
	}
	for ci, tc := range cases {
		r := xrand.New(uint64(1000 + ci))
		tab := buildRandomTable(r, tc.rows)
		got, err := ProfileTableContext(context.Background(), tab, tc.opts)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		want := referenceProfile(tab, tc.opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (rows=%d opts=%+v): profile diverged from reference\ngot:  %+v\nwant: %+v",
				ci, tc.rows, tc.opts, got, want)
			for i := range want.Columns {
				if !reflect.DeepEqual(got.Columns[i], want.Columns[i]) {
					t.Errorf("  column %s:\n  got:  %+v\n  want: %+v",
						want.Columns[i].Name, got.Columns[i], want.Columns[i])
				}
			}
		}
	}
}

// TestProfileMatchesReferenceMixedWorstCase drives a table whose every
// cell comes from the adversarial pools, with many deletions creating
// scan gaps.
func TestProfileMatchesReferenceMixedWorstCase(t *testing.T) {
	r := xrand.New(0xbadcafe)
	tab := storage.NewTable("mixed", []storage.ColumnDef{
		{Name: "a", Class: schema.ClassText},
		{Name: "b", Class: schema.ClassText},
		{Name: "c", Class: schema.ClassText},
	})
	for i := 0; i < 600; i++ {
		tab.MustInsert(randValue(r), randValue(r), randValue(r))
	}
	for i := 0; i < 200; i++ {
		_ = tab.Delete(int64(r.Intn(600)))
	}
	for _, opts := range []Options{{}, {SampleSize: 100, Seed: 3}, {SampleSize: 5000}} {
		got := ProfileTable(tab, opts)
		want := referenceProfile(tab, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opts %+v: profile diverged from reference", opts)
		}
	}
}

// TestProfileAllocationBudget pins the rewrite's reason to exist: the
// bench fixture table (mixed numbers-as-text, list strings, FD pairs)
// must profile in a small fraction of the allocations the reference
// implementation needs. The bound is deliberately loose — it catches
// an accidental return to per-pass rendering or clone-based
// reservoirs, not minor churn.
func TestProfileAllocationBudget(t *testing.T) {
	tab := storage.NewTable("bench", []storage.ColumnDef{
		{Name: "id", Class: schema.ClassInteger},
		{Name: "city", Class: schema.ClassChar},
		{Name: "zip", Class: schema.ClassChar},
		{Name: "val", Class: schema.ClassChar},
		{Name: "tags", Class: schema.ClassText},
	})
	for i := 0; i < 2000; i++ {
		city := fmt.Sprintf("C%d", i%17)
		tab.MustInsert(
			storage.Int(int64(i)),
			storage.Str(city),
			storage.Str("Z-"+city),
			storage.Str(fmt.Sprintf("%d", i*3)),
			storage.Str(fmt.Sprintf("a%d,b%d,c%d", i%7, i%5, i%3)),
		)
	}
	allocs := testing.AllocsPerRun(5, func() {
		ProfileTable(tab, Options{})
	})
	// The reference implementation needs ~60k allocations on this
	// fixture; the streaming profiler a few thousand (mostly integer
	// renderings). 20k keeps headroom while still proving the ≥3x
	// reduction end to end.
	if allocs > 20000 {
		t.Errorf("ProfileTable allocated %.0f times; budget is 20000 (reference needs ~60k)", allocs)
	}
}

// --- float pre-check ---------------------------------------------------

// parsesFloat reports whether strconv.ParseFloat accepts s, counting
// an out-of-range value as accepted: it is in the grammar.
func parsesFloat(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil || errors.Is(err, strconv.ErrRange)
}

// TestMayParseFloatEquivalence runs every string of up to five bytes
// over an alphabet of float-grammar bytes and their near misses.
// mayParseFloat must never reject a string ParseFloat accepts, and on
// strings it decides itself (no x, X or _, no leading inf or nan) it
// must agree with ParseFloat exactly.
func TestMayParseFloatEquivalence(t *testing.T) {
	const alphabet = "019+-.eE x_pinI"
	const maxLen = 5
	buf := make([]byte, 0, maxLen)
	var walk func()
	checked := 0
	walk = func() {
		s := string(buf)
		checked++
		got, want := mayParseFloat(s), parsesFloat(s)
		if !got && want {
			t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", s)
		}
		decided := !strings.ContainsAny(s, "xX_") &&
			!strings.HasPrefix(strings.TrimLeft(s, "+-"), "i") &&
			!strings.HasPrefix(strings.TrimLeft(s, "+-"), "I") &&
			!strings.HasPrefix(strings.TrimLeft(s, "+-"), "n")
		if decided && got != want {
			t.Errorf("mayParseFloat(%q) = %v, ParseFloat accepts: %v", s, got, want)
		}
		if len(buf) == maxLen {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			walk()
			buf = buf[:len(buf)-1]
		}
	}
	walk()
	if checked < 800_000 {
		t.Fatalf("checked %d strings, want every string up to %d bytes", checked, maxLen)
	}
}

// FuzzMayParseFloat checks the pre-check's one-sided contract on
// arbitrary strings: mayParseFloat false implies ParseFloat fails.
func FuzzMayParseFloat(f *testing.F) {
	for _, s := range []string{"", "1", "-1.5e+10", ".5", "5.", "1e", "0x1p-2", "1_000", "+Inf", "nan", "12a", "1.2.3", "9e999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !mayParseFloat(s) && parsesFloat(s) {
			t.Fatalf("mayParseFloat(%q) = false, but ParseFloat accepts it", s)
		}
	})
}
