// Package profile implements ap-detect's data analyser (paper §4.2):
// it samples table contents and computes per-column statistics and
// format inferences that the data rules consume — delimiter-separated
// lists (multi-valued attribute), numbers stored as text (incorrect
// data type), timestamps without time zones, derived and redundant
// columns, functional dependencies (denormalization), and
// plaintext-password heuristics.
//
// The profiler is the hottest analysis path in the system, so it is
// built as a single streaming pass over Table.ScanReadOnly: sampled
// rows are never cloned (stored Rows are immutable by construction),
// every cell is rendered to its string/float forms exactly once into
// pooled per-column scratch, and format classification runs through
// the byte-level scanners in classify.go instead of regexps. The
// cross-column passes (functional dependencies, derivations) then
// reuse those renderings instead of re-stringifying every value per
// column pair. Output is byte-identical to the straightforward
// implementation — pinned by the reference-implementation equivalence
// test and the repo's golden corpus — which is what makes profiles
// safe to memoize across requests.
package profile

import (
	"cmp"
	"context"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
	"sqlcheck/internal/xrand"
)

// Options configures sampling and rule thresholds (paper: "ap-detect
// allows the developer to configure the tuple sampling frequency and
// the thresholds associated with activating data rules").
type Options struct {
	// SampleSize is the reservoir size per table (default 1000).
	SampleSize int
	// Seed makes sampling deterministic.
	Seed uint64
	// FormatThreshold is the fraction of sampled non-null values that
	// must match a format for it to be inferred (default 0.9).
	FormatThreshold float64
	// DelimiterThreshold is the fraction of values that must look like
	// delimiter-separated lists for the MVA data rule (default 0.6).
	DelimiterThreshold float64
	// EnumDistinctRatio is the distinct/rows ratio below which a
	// string column looks like an enumeration (default 0.01, with an
	// absolute distinct cap).
	EnumDistinctRatio float64
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.SampleSize == 0 {
		o.SampleSize = 1000
	}
	if o.Seed == 0 {
		o.Seed = 0xdb5eed
	}
	if o.FormatThreshold == 0 {
		o.FormatThreshold = 0.9
	}
	if o.DelimiterThreshold == 0 {
		o.DelimiterThreshold = 0.6
	}
	if o.EnumDistinctRatio == 0 {
		o.EnumDistinctRatio = 0.01
	}
	return o
}

// Normalized returns the options with every zero field replaced by
// its default — the canonical form under which two configurations
// produce identical profiles. Options is comparable, so a normalized
// value is directly usable as (part of) a memoization key: zero-valued
// and explicitly-default options share cache entries.
func (o Options) Normalized() Options { return o.withDefaults() }

// ColumnProfile holds statistics for one column computed over the
// sample.
type ColumnProfile struct {
	Name  string
	Class schema.TypeClass

	Rows     int // sampled rows
	Nulls    int
	Distinct int
	// TopValue is the most frequent non-null value and TopFreq its
	// sample frequency.
	TopValue string
	TopFreq  int

	// Numeric stats (over values that coerce to numbers).
	NumericCount int
	Min, Max     float64

	// String format counters (over non-null string renderings).
	IntLike      int
	FloatLike    int
	DateLike     int
	DateTimeNoTZ int
	DateTimeTZ   int
	PathLike     int
	EmailLike    int
	DelimList    int // looks like a delimiter-separated value list
	PlainTextish int // short, unhashed-looking strings (password rule)
}

// NonNull returns the number of non-null sampled values.
func (c *ColumnProfile) NonNull() int { return c.Rows - c.Nulls }

// DistinctRatio returns distinct/non-null (1.0 when empty).
func (c *ColumnProfile) DistinctRatio() float64 {
	if c.NonNull() == 0 {
		return 1
	}
	return float64(c.Distinct) / float64(c.NonNull())
}

// FracOf returns count/non-null as a fraction.
func (c *ColumnProfile) FracOf(count int) float64 {
	if c.NonNull() == 0 {
		return 0
	}
	return float64(count) / float64(c.NonNull())
}

// TableProfile aggregates the column profiles of one table plus
// cross-column findings. Profiles are immutable once built — every
// consumer (data rules, ranking, fixes) only reads them — which is
// what allows one profile to be shared by concurrent workloads and
// memoized across requests.
type TableProfile struct {
	Table       string
	RowsSampled int
	TotalRows   int
	Columns     []*ColumnProfile
	// FDs lists observed functional dependencies A -> B between
	// non-key columns with substantial value repetition (the
	// denormalized-table signal).
	FDs []FunctionalDependency
	// Derivations lists detected derived-column relationships
	// (information duplication), e.g. "age derived from birth_year".
	Derivations []Derivation
	opts        Options
}

// FunctionalDependency records that in the sample, each value of From
// determined exactly one value of To, while From is not unique.
type FunctionalDependency struct {
	From, To string
	// Repetition is the average number of rows per distinct From
	// value; higher means more duplication.
	Repetition float64
}

// Derivation records that To appears computable from From.
type Derivation struct {
	From, To string
	// Kind is "year-of", "age-of", "case-copy", "copy", "concat".
	Kind string
}

// Column returns the profile of the named column, or nil.
func (tp *TableProfile) Column(name string) *ColumnProfile {
	for _, c := range tp.Columns {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// Options returns the options the profile was built with.
func (tp *TableProfile) Options() Options { return tp.opts }

// Per-entry size model for MemSize: struct footprints rounded up to
// cover allocator and pointer overhead. Like the parse cache's cost
// model, it only needs to be proportional — it decides how many
// profiles fit a byte budget, not an allocator ledger.
const (
	tableProfileBase  = 160
	columnProfileBase = 208
	fdBase            = 56
	derivationBase    = 72
)

// MemSize estimates the profile's resident bytes — the cost a
// byte-bounded profile cache charges for keeping it.
func (tp *TableProfile) MemSize() int64 {
	n := int64(tableProfileBase + len(tp.Table))
	for _, c := range tp.Columns {
		n += columnProfileBase + int64(len(c.Name)+len(c.TopValue))
	}
	for _, fd := range tp.FDs {
		n += fdBase + int64(len(fd.From)+len(fd.To))
	}
	for _, d := range tp.Derivations {
		n += derivationBase + int64(len(d.From)+len(d.To)+len(d.Kind))
	}
	return n
}

// rePath is the one format the profiler still matches with a regexp
// (a genuinely irregular alternation), behind pathLike's cheap
// necessary-condition pre-check. The other formats classify through
// the byte-level scanners in classify.go; their reference regexes
// live in the tests, which hold each scanner to its regex.
var rePath = regexp.MustCompile(`^(/|[A-Za-z]:\\|\./|\.\./).+|^[\w./-]+\.(jpg|jpeg|png|gif|pdf|doc|docx|csv|txt|mp4|zip)$`)

// cancelCheckRows is how many scanned rows pass between context
// checks during sampling; small enough that canceling a request stops
// a large-table profile promptly, large enough that the check is
// noise against per-row work.
const cancelCheckRows = 1024

// cell is one sampled value rendered exactly once: the display string
// (shared with the stored Value when it already is a string), the
// numeric coercion, and the type tags the statistics and cross-column
// passes consume. Rendering per cell instead of per use is the
// profiler's main allocation win — the FD and derivation passes used
// to re-stringify every value once per column pair.
type cell struct {
	s     string
	f     float64
	kind  storage.ValueKind
	isNum bool // numeric coercion succeeded (Value.AsFloat semantics)
	tz    bool // KindTime with a known zone
}

// renderCell converts a stored value into its profiled forms. For
// strings, the float coercion is attempted only when a digit is
// present: every finite decimal or hex rendering contains one, and
// the digit-free strings AsFloat would accept ("Inf", "NaN") cannot
// influence any profiled statistic — strings only count as numeric
// when they match the int/float formats (which require digits), and
// the derivation pass's year arithmetic is never satisfied by
// non-finite values. mayParseFloat screens out, before ParseFloat
// runs, the strings it would reject: each rejection allocates an
// error holding a copy of the string, and most text cells that hold a
// digit are not numbers.
func renderCell(v storage.Value) cell {
	c := cell{kind: v.Kind, tz: v.TZKnown}
	if v.Kind == storage.KindNull {
		return c
	}
	c.s = v.String()
	switch v.Kind {
	case storage.KindInt:
		c.f, c.isNum = float64(v.I), true
	case storage.KindFloat:
		c.f, c.isNum = v.F, true
	case storage.KindBool:
		if v.B {
			c.f = 1
		}
		c.isNum = true
	case storage.KindTime:
		c.f, c.isNum = float64(v.I), true
	case storage.KindString:
		if hasDigit(c.s) {
			if t := strings.TrimSpace(c.s); mayParseFloat(t) {
				if f, err := strconv.ParseFloat(t, 64); err == nil {
					c.f, c.isNum = f, true
				}
			}
		}
	}
	return c
}

// scratch is the reusable per-profile working state: one cell slice
// per column (indexed by reservoir slot), a frequency map shared by
// the sequential per-column stats passes, and the FD pair map. Pooled
// so that profiling N tables — the engine's per-table fan-out —
// allocates scratch O(pool) times, not O(tables), and concurrent
// profiles never contend on shared state.
type scratch struct {
	cols [][]cell
	freq map[string]int
	fd   map[string]string
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// columns returns n empty cell slices, reusing grown capacity.
func (sc *scratch) columns(n int) [][]cell {
	for len(sc.cols) < n {
		sc.cols = append(sc.cols, nil)
	}
	cols := sc.cols[:n]
	for i := range cols {
		cols[i] = cols[i][:0]
	}
	return cols
}

// release zeroes retained cells and map entries (they hold strings
// referencing table data, which must not outlive the profile call in
// the pool) and returns the scratch.
func (sc *scratch) release() {
	for i := range sc.cols {
		clear(sc.cols[i])
	}
	clear(sc.freq)
	clear(sc.fd)
	scratchPool.Put(sc)
}

// ProfileTable profiles one storage table.
func ProfileTable(t *storage.Table, opts Options) *TableProfile {
	tp, _ := ProfileTableContext(context.Background(), t, opts)
	return tp
}

// ProfileTableContext is ProfileTable with cancellation: the sampling
// scan checks ctx periodically, and the function returns ctx.Err()
// (and no profile) when the context is canceled mid-profile. With an
// uncanceled context the result is identical to ProfileTable.
//
// The whole profile is one streaming pass over ScanReadOnly: the
// reservoir holds rendered cells, not cloned rows (stored Rows are
// immutable — DML always replaces whole rows — so nothing needs
// copying), and every downstream statistic reads the renderings.
func ProfileTableContext(ctx context.Context, t *storage.Table, opts Options) (*TableProfile, error) {
	opts = opts.withDefaults()
	ncols := len(t.Cols)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	cols := sc.columns(ncols)

	// Reservoir sampling (the tests' Sample reference follows the same
	// schedule, so one seed samples one row set), rendering each
	// admitted row's cells in place of cloning it. A replaced slot's
	// renderings are simply overwritten.
	r := xrand.New(opts.Seed)
	sampled, n := 0, 0
	t.ScanReadOnly(func(id int64, row storage.Row) bool {
		n++
		if n%cancelCheckRows == 0 && ctx.Err() != nil {
			return false
		}
		if sampled < opts.SampleSize {
			for i := range cols {
				cols[i] = append(cols[i], renderCell(row[i]))
			}
			sampled++
			return true
		}
		if j := r.Intn(n); j < opts.SampleSize {
			for i := range cols {
				cols[i][j] = renderCell(row[i])
			}
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	tp := &TableProfile{Table: t.Name, RowsSampled: sampled, TotalRows: t.Len(), opts: opts}
	tp.Columns = make([]*ColumnProfile, ncols)
	for i, cd := range t.Cols {
		cp := &ColumnProfile{Name: cd.Name, Class: cd.Class}
		tp.Columns[i] = cp
		sc.columnStats(cp, cols[i])
	}

	// The cross-column passes below run over the bounded sample, but
	// on wide tables they are quadratic in columns — re-check before
	// each so cancellation stays prompt end to end.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tp.findFDs(cols, sc.fdMap())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tp.findDerivations(cols)
	return tp, nil
}

// freqMap returns the cleared shared frequency map.
func (sc *scratch) freqMap() map[string]int {
	if sc.freq == nil {
		sc.freq = make(map[string]int)
	} else {
		clear(sc.freq)
	}
	return sc.freq
}

// fdMap returns the shared (cleared-per-pair) FD mapping.
func (sc *scratch) fdMap() map[string]string {
	if sc.fd == nil {
		sc.fd = make(map[string]string)
	}
	return sc.fd
}

// columnStats computes one column's profile from its rendered cells.
// Min and Max follow sort.Float64s's order, in which a NaN sorts
// before every number.
func (sc *scratch) columnStats(cp *ColumnProfile, cells []cell) {
	freq := sc.freqMap()
	for i := range cells {
		c := &cells[i]
		cp.Rows++
		if c.kind == storage.KindNull {
			cp.Nulls++
			continue
		}
		freq[c.s]++
		var isInt, isFloat bool
		if c.kind == storage.KindString {
			// The two formats are disjoint (one forbids '.', the other
			// requires it), so each cell is scanned at most twice here
			// and the results serve both the numeric-coercion test and
			// the format cascade below.
			isInt = intLike(c.s)
			isFloat = !isInt && floatLike(c.s)
		}
		if c.isNum && (c.kind == storage.KindInt || c.kind == storage.KindFloat ||
			c.kind == storage.KindString && (isInt || isFloat)) {
			cp.NumericCount++
			switch {
			case cp.NumericCount == 1:
				cp.Min, cp.Max = c.f, c.f
			case cmp.Less(c.f, cp.Min):
				cp.Min = c.f
			case cmp.Less(cp.Max, c.f):
				cp.Max = c.f
			}
		}
		if c.kind == storage.KindString {
			switch {
			case isInt:
				cp.IntLike++
			case isFloat:
				cp.FloatLike++
			case dateTimeTZLike(c.s):
				cp.DateTimeTZ++
			case dateTimeNoTZLike(c.s):
				cp.DateTimeNoTZ++
			case dateLike(c.s):
				cp.DateLike++
			case emailLike(c.s):
				cp.EmailLike++
			case pathLike(c.s):
				cp.PathLike++
			}
			if delimListLike(c.s) {
				cp.DelimList++
			}
			// "Short and unhashed-looking": the hashed-value format
			// (reHexish) requires at least 20 characters, so under the
			// 20-byte cap the length test alone decides.
			if len(c.s) > 0 && len(c.s) < 20 {
				cp.PlainTextish++
			}
		}
		if c.kind == storage.KindTime && !c.tz {
			cp.DateTimeNoTZ++
		}
		if c.kind == storage.KindTime && c.tz {
			cp.DateTimeTZ++
		}
	}
	cp.Distinct = len(freq)
	for v, n := range freq {
		if n > cp.TopFreq || (n == cp.TopFreq && v < cp.TopValue) {
			cp.TopValue, cp.TopFreq = v, n
		}
	}
}

// ProfileDatabase profiles every table.
func ProfileDatabase(db *storage.Database, opts Options) map[string]*TableProfile {
	out := make(map[string]*TableProfile)
	for _, t := range db.Tables() {
		out[strings.ToLower(t.Name)] = ProfileTable(t, opts)
	}
	return out
}

// findFDs detects non-trivial functional dependencies between
// non-unique columns — the signature of a denormalized table. mapping
// is caller-provided scratch, cleared per pair.
func (tp *TableProfile) findFDs(cols [][]cell, mapping map[string]string) {
	if tp.RowsSampled < 10 {
		return
	}
	n := len(tp.Columns)
	for a := 0; a < n; a++ {
		ca := tp.Columns[a]
		// From-column must repeat (not unique) and have a real domain.
		if ca.Distinct < 2 || ca.DistinctRatio() > 0.5 {
			continue
		}
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			cb := tp.Columns[b]
			if cb.Distinct < 2 {
				continue // constant columns are the redundant-column rule's business
			}
			clear(mapping)
			fd := true
			colA, colB := cols[a], cols[b]
			for r := range colA {
				va, vb := &colA[r], &colB[r]
				if va.kind == storage.KindNull || vb.kind == storage.KindNull {
					continue
				}
				if prev, ok := mapping[va.s]; ok {
					if prev != vb.s {
						fd = false
						break
					}
				} else {
					mapping[va.s] = vb.s
				}
			}
			// Require the dependency to be non-trivial: B must vary
			// with A (not constant) and A repeats enough that B values
			// are materially duplicated.
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

// findDerivations detects derived columns (information duplication).
func (tp *TableProfile) findDerivations(cols [][]cell) {
	if tp.RowsSampled < 5 {
		return
	}
	n := len(tp.Columns)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			kind := detectDerivation(cols[a], cols[b])
			if kind != "" {
				tp.Derivations = append(tp.Derivations, Derivation{
					From: tp.Columns[a].Name, To: tp.Columns[b].Name, Kind: kind,
				})
			}
		}
	}
}

func detectDerivation(colA, colB []cell) string {
	const currentYear = 2020 // the paper's evaluation year; only used for age-of heuristics
	checked := 0
	copies, caseCopies, years, ages := 0, 0, 0, 0
	for r := range colA {
		va, vb := &colA[r], &colB[r]
		if va.kind == storage.KindNull || vb.kind == storage.KindNull {
			continue
		}
		checked++
		sa, sb := va.s, vb.s
		if sa == sb {
			copies++
		}
		if !strings.EqualFold(sa, sb) {
			// fallthrough
		} else if sa != sb {
			caseCopies++
		}
		// year extraction from a date: "1987-03-01" -> "1987".
		if len(sa) >= 4 && (dateLike(sa) || dateTimeNoTZLike(sa)) && sb == sa[:4] {
			years++
		}
		// age from year of birth.
		if va.isNum && vb.isNum {
			if va.f > 1900 && va.f < float64(currentYear) && vb.f == float64(currentYear)-va.f {
				ages++
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
