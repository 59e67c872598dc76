package rules

import (
	"regexp"
	"sort"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
)

// Physical design anti-patterns (Table 1, category 2).

// Rule IDs for the physical design category.
const (
	IDRoundingErrors      = "rounding-errors"
	IDEnumeratedTypes     = "enumerated-types"
	IDExternalDataStorage = "external-data-storage"
	IDIndexOveruse        = "index-overuse"
	IDIndexUnderuse       = "index-underuse"
	IDCloneTable          = "clone-table"
)

var moneyName = regexp.MustCompile(`(?i)(price|cost|amount|balance|total|salary|fee|rate|tax|pay)`)

func init() {
	MustRegister(&Rule{
		ID:       IDRoundingErrors,
		Name:     "Rounding Errors",
		Category: Physical,
		Description: "FLOAT/REAL store approximations; aggregates and " +
			"equality comparisons over fractional quantities drift (use " +
			"NUMERIC/DECIMAL).",
		Flags:   ImpactFlags{Accuracy: true},
		Metrics: Metrics{Accuracy: 1},
		// Approximate-numeric type names all contain one of these.
		Meta: Meta{
			Kinds:    []sqlast.StatementKind{sqlast.KindCreateTable},
			AnyToken: []string{"FLOAT", "REAL", "DOUBLE"},
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			r := ByID(IDRoundingErrors)
			var out []Finding
			for _, c := range ct.Columns {
				if schema.ClassifyType(c.Type) != schema.ClassApproxNumeric {
					continue
				}
				conf := 0.6
				if moneyName.MatchString(c.Name) {
					conf = 0.9
				}
				out = append(out, withConfidence(
					finding(r, qi, ct.Name, c.Name, "query",
						"%s.%s stores fractional data as %s; use NUMERIC/DECIMAL", ct.Name, c.Name, c.Type), conf))
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			if t == nil {
				return nil
			}
			r := ByID(IDRoundingErrors)
			var out []Finding
			for _, c := range t.Columns {
				if c.Class != schema.ClassApproxNumeric {
					continue
				}
				conf := 0.6
				if moneyName.MatchString(c.Name) {
					conf = 0.9
				}
				out = append(out, withConfidence(
					finding(r, -1, t.Name, c.Name, "data",
						"%s.%s stores fractional data as %s", t.Name, c.Name, c.Type), conf))
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDEnumeratedTypes,
		Name:     "Enumerated Types",
		Category: Physical,
		Description: "ENUM columns and CHECK (col IN (...)) constraints " +
			"freeze the value domain in DDL; renaming a value requires " +
			"constraint surgery over the whole table (paper Example 4).",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: -1},
		Metrics: Metrics{WritePerf: 10, Maint: 2, DataAmp: 1},
		Meta: Meta{
			Kinds:    []sqlast.StatementKind{sqlast.KindCreateTable, sqlast.KindAlterTable},
			AnyToken: []string{"ENUM", "SET", "CHECK"},
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			r := ByID(IDEnumeratedTypes)
			var out []Finding
			switch s := f.Stmt.(type) {
			case *sqlast.CreateTableStatement:
				for _, c := range s.Columns {
					if strings.EqualFold(c.Type, "ENUM") || strings.EqualFold(c.Type, "SET") {
						out = append(out, withConfidence(
							finding(r, qi, s.Name, c.Name, "query",
								"%s.%s uses ENUM(%s)", s.Name, c.Name, strings.Join(c.TypeParams, ",")), 0.95))
					}
					if c.Check != nil {
						if col, vals := schema.InListCheck(c.Check); col != "" {
							out = append(out, withConfidence(
								finding(r, qi, s.Name, col, "query",
									"%s.%s restricted by CHECK IN-list of %d values", s.Name, col, len(vals)), 0.9))
						}
					}
				}
				for _, tc := range s.Constraints {
					if tc.CKind == "CHECK" {
						if col, vals := schema.InListCheck(tc.Check); col != "" {
							out = append(out, withConfidence(
								finding(r, qi, s.Name, col, "query",
									"%s.%s restricted by CHECK IN-list of %d values", s.Name, col, len(vals)), 0.9))
						}
					}
				}
			case *sqlast.AlterTableStatement:
				if s.Action == sqlast.AlterAddConstraint && s.Constraint != nil && s.Constraint.CKind == "CHECK" {
					if col, vals := schema.InListCheck(s.Constraint.Check); col != "" {
						out = append(out, withConfidence(
							finding(r, qi, s.Table, col, "query",
								"%s.%s restricted by CHECK IN-list of %d values", s.Table, col, len(vals)), 0.9))
					}
				}
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDEnumeratedTypes)
			var out []Finding
			t := ctx.Schema.Table(tp.Table)
			for _, cp := range tp.Columns {
				// Schema-declared enumerations.
				if t != nil {
					if c := t.Column(cp.Name); c != nil && (c.Class == schema.ClassEnum || len(c.CheckInValues) > 0) {
						out = append(out, withConfidence(
							finding(r, -1, tp.Table, cp.Name, "data",
								"%s.%s has a DDL-frozen value domain", tp.Table, cp.Name), 0.95))
						continue
					}
				}
				// Paper Example 4: ratio of distinct values to tuples
				// below threshold on a string column.
				if cp.Class.IsStringy() && cp.NonNull() >= 50 &&
					cp.Distinct >= 2 && cp.Distinct <= 8 &&
					cp.DistinctRatio() <= enumDistinctRatio {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s holds only %d distinct values across %d rows (candidate lookup table)",
							tp.Table, cp.Name, cp.Distinct, cp.NonNull()), 0.6))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDExternalDataStorage,
		Name:     "External Data Storage",
		Category: Physical,
		Description: "Storing file paths instead of content leaves the " +
			"referenced bytes outside transactions and backups.",
		Flags:   ImpactFlags{Maintainability: true, DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{Maint: 1, Integrity: 1, Accuracy: 1},
		Meta: Meta{
			Kinds:    []sqlast.StatementKind{sqlast.KindCreateTable},
			AnyToken: []string{"PATH", "FILE", "ATTACHMENT", "IMAGE_URL"},
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			r := ByID(IDExternalDataStorage)
			var out []Finding
			for _, c := range ct.Columns {
				if nameMatches(c.Name, "path", "filepath", "file_name", "filename", "attachment", "image_url", "file_url") &&
					schema.ClassifyType(c.Type).IsStringy() {
					out = append(out, withConfidence(
						finding(r, qi, ct.Name, c.Name, "query",
							"%s.%s appears to store file paths rather than content", ct.Name, c.Name), 0.7))
				}
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDExternalDataStorage)
			var out []Finding
			for _, cp := range tp.Columns {
				if cp.NonNull() >= 5 && cp.FracOf(cp.PathLike) >= formatThreshold {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%.0f%% of sampled %s.%s values are file paths",
							100*cp.FracOf(cp.PathLike), tp.Table, cp.Name), 0.85))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDIndexOveruse,
		Name:     "Index Overuse",
		Category: Physical,
		Description: "Indexes unused by the workload, or covered by a " +
			"composite index, tax every write (paper Example 5, Fig 8a).",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: -1},
		Metrics: Metrics{WritePerf: 7, Maint: 1, DataAmp: 1},
		DetectSchema: func(ctx *appctx.Context) []Finding {
			r := ByID(IDIndexOveruse)
			var out []Finding
			for _, t := range ctx.Schema.Tables() {
				flagged := map[string]bool{}
				flag := func(ix schema.Index, conf float64, msg string, args ...any) {
					if flagged[ix.Name] {
						return
					}
					flagged[ix.Name] = true
					out = append(out, withConfidence(
						finding(r, -1, t.Name, ix.Name, "schema", msg, args...), conf))
				}
				// Redundant prefixes: an index whose column list is a
				// prefix of another index on the same table.
				for i, a := range t.Indexes {
					for j, b := range t.Indexes {
						if i == j {
							continue
						}
						if isPrefix(a.Columns, b.Columns) && len(a.Columns) < len(b.Columns) {
							flag(a, 0.9, "index %q on %s is a prefix of index %q", a.Name, t.Name, b.Name)
						}
					}
				}
				if len(ctx.Facts) == 0 {
					continue
				}
				for _, ix := range t.Indexes {
					if len(ix.Columns) == 0 || flagged[ix.Name] {
						continue
					}
					lead := ix.Columns[0]
					// Workload-unused indexes: no query predicates on
					// the leading column (Example 5's workload
					// sensitivity).
					if ctx.PredicateCount(t.Name, lead) == 0 {
						flag(ix, 0.7, "index %q on %s.%s is never used by the workload",
							ix.Name, t.Name, lead)
						continue
					}
					// Subsumed indexes: every query filtering the
					// leading column also filters a higher-selectivity
					// indexed column (Example 5 workload 1: idx_actv is
					// redundant because its queries also hit the pk or
					// the composite index).
					if indexSubsumed(ctx, t, ix) {
						flag(ix, 0.7, "queries filtering %s.%s always also filter a better-indexed column; index %q is redundant",
							t.Name, lead, ix.Name)
					}
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDIndexUnderuse,
		Name:     "Index Underuse",
		Category: Physical,
		Description: "Columns filtered by many queries but not indexed " +
			"force sequential scans (Fig 8b); low-cardinality columns are " +
			"excluded via data analysis (Fig 8c).",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: 1},
		Metrics: Metrics{ReadPerf: 1.5},
		// NeedProfile: the schema detector consults column-cardinality
		// profiles to drop low-cardinality false positives (Fig 8c).
		Meta: Meta{Needs: NeedProfile},
		DetectSchema: func(ctx *appctx.Context) []Finding {
			r := ByID(IDIndexUnderuse)
			var out []Finding
			for _, t := range ctx.Schema.Tables() {
				indexed := t.IndexedColumns()
				seen := map[string]bool{}
				for _, c := range t.Columns {
					lc := strings.ToLower(c.Name)
					if indexed[lc] || seen[lc] {
						continue
					}
					n := ctx.PredicateCount(t.Name, c.Name)
					if n < 2 {
						continue
					}
					conf := 0.7
					// Data refinement (paper §8.2): a low-cardinality
					// column makes an index counterproductive — drop
					// the finding.
					if tp := ctx.Profile(t.Name); tp != nil {
						if cp := tp.Column(c.Name); cp != nil && cp.NonNull() >= 20 {
							if cp.Distinct <= 2 || cp.DistinctRatio() < 0.001 {
								continue
							}
							conf = 0.9
						}
					}
					seen[lc] = true
					out = append(out, withConfidence(
						finding(r, -1, t.Name, c.Name, "schema",
							"%s.%s is filtered by %d queries but has no index", t.Name, c.Name, n), conf))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDCloneTable,
		Name:     "Clone Table",
		Category: Physical,
		Description: "Tables named <base>_1, <base>_2, ... split one " +
			"logical table across DDL objects.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{ReadPerf: 1.2, Maint: 4, Integrity: 1, Accuracy: 1},
		DetectSchema: func(ctx *appctx.Context) []Finding {
			r := ByID(IDCloneTable)
			groups := map[string][]string{}
			for _, t := range ctx.Schema.Tables() {
				m := seriesPattern.FindStringSubmatch(t.Name)
				if m == nil || m[1] == "" {
					continue
				}
				k := strings.ToLower(m[1])
				groups[k] = append(groups[k], t.Name)
			}
			var keys []string
			for k, names := range groups {
				if len(names) >= 2 {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			var out []Finding
			for _, k := range keys {
				names := groups[k]
				sort.Strings(names)
				// One finding per member table so fixes and statement
				// attribution see every clone.
				for _, name := range names {
					out = append(out, withConfidence(
						finding(r, -1, name, "", "schema",
							"tables %s look like clones of one logical table %q",
							strings.Join(names, ", "), k), 0.85))
				}
			}
			return out
		},
		Meta: Meta{Kinds: []sqlast.StatementKind{sqlast.KindCreateTable}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			// Intra-mode fallback: a single CREATE TABLE with a
			// numbered suffix is a weak clone signal (this is what a
			// context-free detector can see — more false positives).
			if ctx.Inter() {
				return nil
			}
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			m := seriesPattern.FindStringSubmatch(ct.Name)
			if m == nil || m[1] == "" {
				return nil
			}
			r := ByID(IDCloneTable)
			return []Finding{withConfidence(
				finding(r, qi, ct.Name, "", "query",
					"table name %q has a numeric suffix (clone-table candidate)", ct.Name), 0.4)}
		},
	})
}

// indexSubsumed reports whether every query predicating on the
// index's leading column also carries an equality predicate on the
// table's primary key, a unique column, or the leading column of a
// longer index — meaning the planner would prefer that access path.
func indexSubsumed(ctx *appctx.Context, t *schema.Table, ix schema.Index) bool {
	lead := strings.ToLower(ix.Columns[0])
	better := map[string]bool{}
	for _, pk := range t.PrimaryKey {
		better[strings.ToLower(pk)] = true
	}
	for _, c := range t.Columns {
		if c.Unique {
			better[strings.ToLower(c.Name)] = true
		}
	}
	for _, other := range t.Indexes {
		if other.Name != ix.Name && len(other.Columns) > len(ix.Columns) {
			better[strings.ToLower(other.Columns[0])] = true
		}
	}
	sawQuery := false
	for _, f := range ctx.Facts {
		if !f.MentionsTable(t.Name) {
			continue
		}
		onLead := false
		onBetter := false
		for _, p := range f.Predicates {
			pc := strings.ToLower(p.Column)
			if pc == lead {
				onLead = true
			}
			if better[pc] {
				onBetter = true
			}
		}
		if onLead {
			sawQuery = true
			if !onBetter {
				return false
			}
		}
	}
	return sawQuery
}

func isPrefix(short, long []string) bool {
	if len(short) > len(long) {
		return false
	}
	for i := range short {
		if !strings.EqualFold(short[i], long[i]) {
			return false
		}
	}
	return true
}
