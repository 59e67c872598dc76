package rules

import (
	"regexp"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
)

// Logical design anti-patterns (Table 1, category 1).

// Rule IDs for the logical design category.
const (
	IDMultiValuedAttribute = "multi-valued-attribute"
	IDNoPrimaryKey         = "no-primary-key"
	IDNoForeignKey         = "no-foreign-key"
	IDGenericPrimaryKey    = "generic-primary-key"
	IDDataInMetadata       = "data-in-metadata"
	IDAdjacencyList        = "adjacency-list"
	IDGodTable             = "god-table"
)

// mvaColumnName matches column names that commonly hold value lists.
var mvaColumnName = regexp.MustCompile(`(?i)(_ids?|ids|_list|list|tags|codes|emails|phones|values)$`)

// listLiteral matches comparison literals that embed a delimiter-
// separated list.
var listLiteral = regexp.MustCompile(`^[\w@.-]+([,;|][\w@.-]+)+$`)

func init() {
	MustRegister(&Rule{
		ID:       IDMultiValuedAttribute,
		Name:     "Multi-Valued Attribute",
		Category: Logical,
		Description: "Storing a list of values in a delimiter-separated " +
			"string violates first normal form; queries degrade to " +
			"pattern matching and referential integrity is unenforceable.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: -1, DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{ReadPerf: 5, WritePerf: 2, Maint: 3, DataAmp: 2, Integrity: 1, Accuracy: 1},
		// Every detection path needs a pattern-match operator (the
		// SIMILAR TO case arrives as ExprJoin + PatternMatching) or a
		// delimiter character inside a compared/inserted literal.
		// NeedSchema|NeedProfile: the query detector refines against
		// declared column classes and the delimiter-list data profile.
		Meta: Meta{Needs: NeedSchema | NeedProfile, Facts: func(f *qanalyze.Facts) bool {
			if f.ExprJoin && f.PatternMatching {
				return true
			}
			for _, p := range f.Predicates {
				switch p.Op {
				case "LIKE", "ILIKE", "REGEXP", "RLIKE", "GLOB":
					return true
				}
				if strings.ContainsAny(p.Literal, ",;|") {
					return true
				}
			}
			for _, row := range f.InsertLiterals {
				for _, lit := range row {
					if strings.ContainsAny(lit, ",;|") {
						return true
					}
				}
			}
			return false
		}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			var out []Finding
			r := ByID(IDMultiValuedAttribute)
			emit := func(table, col string, conf float64, why string) {
				out = append(out, withConfidence(
					finding(r, qi, table, col, "query",
						"column %q appears to store a delimiter-separated list (%s)", col, why), conf))
			}
			// Pattern-matching predicates against id-list-ish columns
			// (the paper's detection regex family: (id\s+regexp)|(id\s+like)).
			for _, p := range f.Predicates {
				isMatchOp := p.Op == "LIKE" || p.Op == "ILIKE" || p.Op == "REGEXP" || p.Op == "RLIKE" || p.Op == "GLOB"
				if !isMatchOp {
					// Equality against an embedded list literal:
					// WHERE ids = 'a,b,c'.
					if (p.Op == "=" || p.Op == "==") && listLiteral.MatchString(p.Literal) {
						emit(f.ResolveTable(p.Table), p.Column, 0.6, "list literal in equality comparison")
					}
					continue
				}
				conf := 0.0
				why := ""
				switch {
				case strings.Contains(p.Literal, "[[:"):
					conf, why = 0.9, "word-boundary pattern search"
				case mvaColumnName.MatchString(p.Column):
					conf, why = 0.7, "pattern matching on a list-named column"
				}
				if conf == 0 {
					continue
				}
				table := f.ResolveTable(p.Table)
				// Inter-query refinement: consult the schema and data
				// profile to cut false positives (Algorithm 2, line 5).
				if ctx.Inter() {
					if t := ctx.Schema.Table(table); t != nil {
						if c := t.Column(p.Column); c != nil {
							if !c.Class.IsStringy() && c.Class != schema.ClassUnknown {
								continue // lists cannot live in non-string columns
							}
						}
					}
					if nameMatches(p.Column, "address", "description", "comment", "body", "text", "note") {
						// Free-text columns legitimately contain commas.
						if tp := ctx.Profile(table); tp != nil {
							if cp := tp.Column(p.Column); cp != nil && cp.FracOf(cp.DelimList) < delimiterThreshold {
								continue
							}
						} else {
							conf *= 0.5
						}
					}
					if tp := ctx.Profile(table); tp != nil {
						if cp := tp.Column(p.Column); cp != nil {
							if cp.FracOf(cp.DelimList) >= delimiterThreshold {
								conf = 0.95
								why += "; data profile confirms delimiter-separated values"
							} else if cp.NonNull() > 10 {
								continue // data refutes it
							}
						}
					}
				}
				emit(table, p.Column, conf, why)
			}
			// Join conditions using pattern matching are the classic
			// MVA join (paper Task #2).
			if f.ExprJoin && f.PatternMatching {
				out = append(out, withConfidence(
					finding(r, qi, firstTable(f), "", "query",
						"JOIN via pattern-matching expression suggests a delimiter-separated list column"), 0.8))
			}
			// Insert of a list literal.
			for _, row := range f.InsertLiterals {
				for ci, lit := range row {
					if listLiteral.MatchString(lit) && strings.Count(lit, ",")+strings.Count(lit, ";") >= 2 {
						col := ""
						if ci < len(f.InsertColumns) {
							col = f.InsertColumns[ci]
						}
						out = append(out, withConfidence(
							finding(r, qi, firstTable(f), col, "query",
								"INSERT stores delimiter-separated list literal %q", lit), 0.7))
					}
				}
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			var out []Finding
			r := ByID(IDMultiValuedAttribute)
			for _, cp := range tp.Columns {
				if !cp.Class.IsStringy() && cp.Class != schema.ClassUnknown {
					continue
				}
				if cp.NonNull() >= 5 && cp.FracOf(cp.DelimList) >= delimiterThreshold {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%.0f%% of sampled values in %s.%s are delimiter-separated lists",
							100*cp.FracOf(cp.DelimList), tp.Table, cp.Name), 0.9))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDNoPrimaryKey,
		Name:     "No Primary Key",
		Category: Logical,
		Description: "A table without a primary key cannot enforce row " +
			"identity; duplicates accumulate and replication breaks.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: 1, DataIntegrity: true},
		Metrics: Metrics{ReadPerf: 2, Maint: 2, DataAmp: 1, Integrity: 1},
		Meta:    Meta{Kinds: []sqlast.StatementKind{sqlast.KindCreateTable}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok || ct.AsSelect != nil {
				return nil
			}
			if hasPrimaryKey(ct) {
				return nil
			}
			r := ByID(IDNoPrimaryKey)
			return []Finding{withConfidence(
				finding(r, qi, ct.Name, "", "query",
					"table %q is created without a primary key", ct.Name), 0.95)}
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			if t == nil || t.HasPrimaryKey() {
				return nil
			}
			r := ByID(IDNoPrimaryKey)
			return []Finding{withConfidence(
				finding(r, -1, tp.Table, "", "data",
					"table %q has no primary key", tp.Table), 0.95)}
		},
	})

	MustRegister(&Rule{
		ID:       IDNoForeignKey,
		Name:     "No Foreign Key",
		Category: Logical,
		Description: "Joined tables without a declared foreign key leave " +
			"referential integrity to application code (paper Example 3).",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataIntegrity: true},
		Metrics: Metrics{WritePerf: 1, Maint: 2, Integrity: 1},
		DetectSchema: func(ctx *appctx.Context) []Finding {
			var out []Finding
			r := ByID(IDNoForeignKey)
			// Inter-query detection: join edges lacking FK coverage.
			for _, e := range ctx.JoinEdges() {
				lt := ctx.Schema.Table(e.LeftTable)
				rt := ctx.Schema.Table(e.RightTable)
				if lt == nil || rt == nil || strings.EqualFold(e.LeftTable, e.RightTable) {
					continue
				}
				if fkCovers(lt, e.LeftColumn, e.RightTable, e.RightColumn) ||
					fkCovers(rt, e.RightColumn, e.LeftTable, e.LeftColumn) {
					continue
				}
				out = append(out, withConfidence(
					finding(r, -1, rt.Name, e.RightColumn, "schema",
						"%s.%s joins %s.%s in %d quer%s but no foreign key relates them",
						e.LeftTable, e.LeftColumn, e.RightTable, e.RightColumn,
						e.Count, plural(e.Count, "y", "ies")), 0.85))
			}
			// Column naming convention: <table>_id without FK.
			for _, t := range ctx.Schema.Tables() {
				for _, c := range t.Columns {
					ref := referencedTableByName(ctx.Schema, t, c.Name)
					if ref == "" {
						continue
					}
					if !hasFKOn(t, c.Name) && !isPKColumn(t, c.Name) {
						out = append(out, withConfidence(
							finding(r, -1, t.Name, c.Name, "schema",
								"%s.%s names table %q but declares no foreign key",
								t.Name, c.Name, ref), 0.6))
					}
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDGenericPrimaryKey,
		Name:     "Generic Primary Key",
		Category: Logical,
		Description: "A generic id column on every table obscures the " +
			"domain key and invites duplicate logical rows.",
		Flags:   ImpactFlags{Maintainability: true},
		Metrics: Metrics{Maint: 1},
		Meta:    Meta{Kinds: []sqlast.StatementKind{sqlast.KindCreateTable}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			pk := primaryKeyCols(ct)
			if len(pk) == 1 && nameIs(pk[0], "id") {
				r := ByID(IDGenericPrimaryKey)
				return []Finding{withConfidence(
					finding(r, qi, ct.Name, pk[0], "query",
						"table %q uses a generic primary key column %q", ct.Name, pk[0]), 0.9)}
			}
			return nil
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			if t == nil || len(t.PrimaryKey) != 1 || !nameIs(t.PrimaryKey[0], "id") {
				return nil
			}
			r := ByID(IDGenericPrimaryKey)
			return []Finding{withConfidence(
				finding(r, -1, t.Name, t.PrimaryKey[0], "data",
					"table %q uses a generic primary key column %q", t.Name, t.PrimaryKey[0]), 0.9)}
		},
	})

	MustRegister(&Rule{
		ID:       IDDataInMetadata,
		Name:     "Data in Metadata",
		Category: Logical,
		Description: "Encoding data values in column names (q1, q2, ... or " +
			"sales_2019, sales_2020) forces DDL changes as data grows.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true, DataAmp: -1, DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{ReadPerf: 1, Maint: 4, DataAmp: 1, Integrity: 1, Accuracy: 1},
		Meta:    Meta{Kinds: []sqlast.StatementKind{sqlast.KindCreateTable}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			if series := columnNameSeries(columnNames(ct)); series != "" {
				r := ByID(IDDataInMetadata)
				return []Finding{withConfidence(
					finding(r, qi, ct.Name, series, "query",
						"table %q encodes data in its column names (series %q)", ct.Name, series), 0.85)}
			}
			return nil
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			if t == nil {
				return nil
			}
			var names []string
			for _, c := range t.Columns {
				names = append(names, c.Name)
			}
			if series := columnNameSeries(names); series != "" {
				r := ByID(IDDataInMetadata)
				return []Finding{withConfidence(
					finding(r, -1, t.Name, series, "data",
						"table %q encodes data in its column names (series %q)", t.Name, series), 0.85)}
			}
			return nil
		},
	})

	MustRegister(&Rule{
		ID:       IDAdjacencyList,
		Name:     "Adjacency List",
		Category: Logical,
		Description: "A self-referencing foreign key models hierarchies " +
			"but makes depth queries and subtree deletes expensive.",
		Flags:   ImpactFlags{Performance: true},
		Metrics: Metrics{ReadPerf: 1.1},
		Meta: Meta{
			Kinds:    []sqlast.StatementKind{sqlast.KindCreateTable},
			AnyToken: []string{"REFERENCES", "FOREIGN"},
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			r := ByID(IDAdjacencyList)
			var out []Finding
			for _, c := range ct.Columns {
				if c.References != nil && strings.EqualFold(c.References.Table, ct.Name) {
					out = append(out, withConfidence(
						finding(r, qi, ct.Name, c.Name, "query",
							"%s.%s references its own table (adjacency list)", ct.Name, c.Name), 0.9))
				}
			}
			for _, tc := range ct.Constraints {
				if tc.CKind == "FOREIGN KEY" && tc.Ref != nil && strings.EqualFold(tc.Ref.Table, ct.Name) {
					col := ""
					if len(tc.Columns) > 0 {
						col = tc.Columns[0]
					}
					out = append(out, withConfidence(
						finding(r, qi, ct.Name, col, "query",
							"%s.%s references its own table (adjacency list)", ct.Name, col), 0.9))
				}
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			if t == nil || !t.SelfRefFK {
				return nil
			}
			r := ByID(IDAdjacencyList)
			return []Finding{withConfidence(
				finding(r, -1, t.Name, "", "data",
					"table %q has a self-referencing foreign key (adjacency list)", t.Name), 0.9)}
		},
	})

	MustRegister(&Rule{
		ID:       IDGodTable,
		Name:     "God Table",
		Category: Logical,
		Description: "A table with very many attributes typically mixes " +
			"several entities and update patterns.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true},
		Metrics: Metrics{ReadPerf: 1.2, Maint: 3},
		Meta:    Meta{Kinds: []sqlast.StatementKind{sqlast.KindCreateTable}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			ct, ok := f.Stmt.(*sqlast.CreateTableStatement)
			if !ok {
				return nil
			}
			threshold := ctx.Config.GodTableColumns
			if threshold <= 0 {
				threshold = 10
			}
			if len(ct.Columns) <= threshold {
				return nil
			}
			r := ByID(IDGodTable)
			return []Finding{withConfidence(
				finding(r, qi, ct.Name, "", "query",
					"table %q declares %d columns (threshold %d)", ct.Name, len(ct.Columns), threshold), 0.9)}
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			t := ctx.Schema.Table(tp.Table)
			threshold := ctx.Config.GodTableColumns
			if threshold <= 0 {
				threshold = 10
			}
			if t == nil || len(t.Columns) <= threshold {
				return nil
			}
			r := ByID(IDGodTable)
			return []Finding{withConfidence(
				finding(r, -1, t.Name, "", "data",
					"table %q has %d columns (threshold %d)", t.Name, len(t.Columns), threshold), 0.9)}
		},
	})
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func firstTable(f *qanalyze.Facts) string {
	if len(f.Tables) > 0 {
		return f.Tables[0].Name
	}
	return ""
}

func hasPrimaryKey(ct *sqlast.CreateTableStatement) bool {
	return len(primaryKeyCols(ct)) > 0
}

func primaryKeyCols(ct *sqlast.CreateTableStatement) []string {
	for _, c := range ct.Columns {
		if c.PrimaryKey {
			return []string{c.Name}
		}
	}
	for _, tc := range ct.Constraints {
		if tc.CKind == "PRIMARY KEY" {
			return tc.Columns
		}
	}
	return nil
}

func columnNames(ct *sqlast.CreateTableStatement) []string {
	var out []string
	for _, c := range ct.Columns {
		out = append(out, c.Name)
	}
	return out
}

// seriesPattern captures a trailing number on a column name.
var seriesPattern = regexp.MustCompile(`^(.*?)[_-]?(\d+)$`)

// columnNameSeries detects >= 3 columns sharing a prefix with distinct
// numeric suffixes (q1, q2, q3 / sales_2019, sales_2020, sales_2021).
func columnNameSeries(names []string) string {
	groups := map[string]int{}
	for _, n := range names {
		m := seriesPattern.FindStringSubmatch(n)
		if m == nil || m[1] == "" {
			continue
		}
		groups[strings.ToLower(m[1])]++
	}
	best, bestCount := "", 0
	for prefix, count := range groups {
		if count > bestCount {
			best, bestCount = prefix, count
		}
	}
	if bestCount >= 3 {
		return best + "N"
	}
	return ""
}

// fkCovers reports whether table t declares a foreign key from col to
// refTable.refCol.
func fkCovers(t *schema.Table, col, refTable, refCol string) bool {
	for _, fk := range t.ForeignKeys {
		if !strings.EqualFold(fk.RefTable, refTable) {
			continue
		}
		for i, c := range fk.Columns {
			if !strings.EqualFold(c, col) {
				continue
			}
			if len(fk.RefColumns) == 0 {
				return true // references the pk implicitly
			}
			if i < len(fk.RefColumns) && strings.EqualFold(fk.RefColumns[i], refCol) {
				return true
			}
			// Single-column FK with explicit ref column.
			if len(fk.Columns) == 1 && len(fk.RefColumns) == 1 && strings.EqualFold(fk.RefColumns[0], refCol) {
				return true
			}
		}
	}
	return false
}

func hasFKOn(t *schema.Table, col string) bool {
	for _, fk := range t.ForeignKeys {
		for _, c := range fk.Columns {
			if strings.EqualFold(c, col) {
				return true
			}
		}
	}
	return false
}

func isPKColumn(t *schema.Table, col string) bool {
	for _, c := range t.PrimaryKey {
		if strings.EqualFold(c, col) {
			return true
		}
	}
	return false
}

// referencedTableByName finds a schema table whose name matches a
// <table>_id column naming convention; returns "" when none.
func referencedTableByName(s *schema.Schema, owner *schema.Table, col string) string {
	l := strings.ToLower(col)
	if !strings.HasSuffix(l, "_id") {
		return ""
	}
	base := strings.TrimSuffix(l, "_id")
	if base == "" || strings.EqualFold(owner.Name, base) {
		return ""
	}
	for _, cand := range []string{base, base + "s", base + "es"} {
		if t := s.Table(cand); t != nil && !strings.EqualFold(t.Name, owner.Name) {
			return t.Name
		}
	}
	return ""
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
