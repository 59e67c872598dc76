package rules

import (
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
)

// Query anti-patterns (Table 1, category 3) plus Readable Password.

// Rule IDs for the query category.
const (
	IDColumnWildcard   = "column-wildcard"
	IDConcatenateNulls = "concatenate-nulls"
	IDOrderByRand      = "order-by-rand"
	IDPatternMatching  = "pattern-matching"
	IDImplicitColumns  = "implicit-columns"
	IDDistinctJoin     = "distinct-join"
	IDTooManyJoins     = "too-many-joins"
	IDReadablePassword = "readable-password"
)

func init() {
	MustRegister(&Rule{
		ID:       IDColumnWildcard,
		Name:     "Column Wildcard Usage",
		Category: Query,
		Description: "SELECT * couples the application to the full column " +
			"list; refactoring the table silently breaks consumers.",
		Flags:   ImpactFlags{Performance: true, Accuracy: true},
		Metrics: Metrics{ReadPerf: 1.3, Accuracy: 1},
		Meta: Meta{
			Kinds: []sqlast.StatementKind{sqlast.KindSelect},
			Facts: func(f *qanalyze.Facts) bool { return f.SelectStar },
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			if !f.SelectStar {
				return nil
			}
			r := ByID(IDColumnWildcard)
			return []Finding{withConfidence(
				finding(r, qi, firstTable(f), "", "query",
					"SELECT * retrieves all columns; name the ones the application uses"), 0.9)}
		},
	})

	MustRegister(&Rule{
		ID:       IDConcatenateNulls,
		Name:     "Concatenate Nulls",
		Category: Query,
		Description: "str || NULL yields NULL, silently erasing the whole " +
			"concatenation.",
		Flags:   ImpactFlags{Accuracy: true},
		Metrics: Metrics{Accuracy: 1},
		// NeedSchema: the detector consults column NOT NULL declarations
		// to suppress (or confirm) nullable-concat findings.
		Meta: Meta{
			Facts: func(f *qanalyze.Facts) bool { return len(f.ConcatColumns) > 0 },
			Needs: NeedSchema,
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			if len(f.ConcatColumns) == 0 {
				return nil
			}
			r := ByID(IDConcatenateNulls)
			var out []Finding
			seen := map[string]bool{}
			for _, cu := range f.ConcatColumns {
				table := f.ResolveTable(cu.Table)
				if table == "" && len(f.Tables) == 1 {
					table = f.Tables[0].Name
				}
				conf := 0.5
				if ctx.Inter() {
					if t := ctx.Schema.Table(table); t != nil {
						if c := t.Column(cu.Column); c != nil {
							if c.NotNull {
								continue // cannot be NULL: no finding
							}
							conf = 0.9
						}
					}
				}
				k := strings.ToLower(table + "." + cu.Column)
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, withConfidence(
					finding(r, qi, table, cu.Column, "query",
						"concatenation with nullable column %q yields NULL when it is NULL; wrap in COALESCE", cu.Column), conf))
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDOrderByRand,
		Name:     "Ordering by RAND",
		Category: Query,
		Description: "ORDER BY RAND() materializes and shuffles the whole " +
			"result to pick a few rows.",
		Flags:   ImpactFlags{Performance: true},
		Metrics: Metrics{ReadPerf: 3},
		Meta:    Meta{Facts: func(f *qanalyze.Facts) bool { return f.OrderByRand }},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			if !f.OrderByRand {
				return nil
			}
			r := ByID(IDOrderByRand)
			return []Finding{withConfidence(
				finding(r, qi, firstTable(f), "", "query",
					"ORDER BY RAND() sorts every candidate row to sample a few"), 0.95)}
		},
	})

	MustRegister(&Rule{
		ID:       IDPatternMatching,
		Name:     "Pattern Matching",
		Category: Query,
		Description: "Leading-wildcard LIKE and regular expressions defeat " +
			"indexes and scan every row.",
		Flags:   ImpactFlags{Performance: true},
		Metrics: Metrics{ReadPerf: 4},
		// Mirrors the detector's trigger set: heavy predicates or a
		// pattern-matching join.
		Meta: Meta{Facts: func(f *qanalyze.Facts) bool {
			if f.ExprJoin && f.PatternMatching {
				return true
			}
			for _, p := range f.Predicates {
				if p.LeadingWildcard || p.Op == "REGEXP" || p.Op == "RLIKE" ||
					p.Op == "SIMILAR TO" || strings.Contains(p.Literal, "[[:") {
					return true
				}
			}
			return false
		}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			r := ByID(IDPatternMatching)
			var out []Finding
			for _, p := range f.Predicates {
				heavy := p.LeadingWildcard ||
					p.Op == "REGEXP" || p.Op == "RLIKE" || p.Op == "SIMILAR TO" ||
					strings.Contains(p.Literal, "[[:")
				if !heavy {
					continue
				}
				out = append(out, withConfidence(
					finding(r, qi, f.ResolveTable(p.Table), p.Column, "query",
						"predicate %s %s %q cannot use an index", p.Column, p.Op, p.Literal), 0.85))
			}
			if f.ExprJoin && f.PatternMatching {
				out = append(out, withConfidence(
					finding(r, qi, firstTable(f), "", "query",
						"JOIN condition uses pattern matching; the DBMS must evaluate it per row pair"), 0.85))
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDImplicitColumns,
		Name:     "Implicit Columns",
		Category: Query,
		Description: "INSERT without a column list breaks when the schema " +
			"evolves (paper Example 2).",
		Flags:   ImpactFlags{Maintainability: true, DataIntegrity: true},
		Metrics: Metrics{Maint: 2, Integrity: 1},
		Meta:    Meta{Kinds: []sqlast.StatementKind{sqlast.KindInsert}},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			if !f.InsertNoColumns {
				return nil
			}
			r := ByID(IDImplicitColumns)
			return []Finding{withConfidence(
				finding(r, qi, firstTable(f), "", "query",
					"INSERT INTO %s omits the column list", firstTable(f)), 0.95)}
		},
	})

	MustRegister(&Rule{
		ID:       IDDistinctJoin,
		Name:     "DISTINCT and JOIN",
		Category: Query,
		Description: "DISTINCT that papers over join fan-out hides a " +
			"missing semi-join (EXISTS) and re-sorts the whole result.",
		Flags:   ImpactFlags{Performance: true, Maintainability: true},
		Metrics: Metrics{ReadPerf: 1.5, Maint: 1},
		Meta: Meta{
			Kinds: []sqlast.StatementKind{sqlast.KindSelect},
			Facts: func(f *qanalyze.Facts) bool { return f.Distinct && f.JoinCount > 0 },
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			if !f.Distinct || f.JoinCount == 0 {
				return nil
			}
			r := ByID(IDDistinctJoin)
			return []Finding{withConfidence(
				finding(r, qi, firstTable(f), "", "query",
					"DISTINCT combined with JOIN suggests deduplicating join fan-out; consider EXISTS"), 0.75)}
		},
	})

	MustRegister(&Rule{
		ID:       IDTooManyJoins,
		Name:     "Too Many Joins",
		Category: Query,
		Description: "Joins beyond the threshold explode the planner's " +
			"search space and usually indicate over-normalization or " +
			"ORM-generated queries.",
		Flags:   ImpactFlags{Performance: true},
		Metrics: Metrics{ReadPerf: 2},
		Meta: Meta{
			Kinds: []sqlast.StatementKind{sqlast.KindSelect, sqlast.KindInsert},
			Facts: func(f *qanalyze.Facts) bool { return f.JoinCount > 0 },
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			threshold := ctx.Config.TooManyJoins
			if threshold <= 0 {
				threshold = 4
			}
			if f.JoinCount < threshold {
				return nil
			}
			r := ByID(IDTooManyJoins)
			return []Finding{withConfidence(
				finding(r, qi, firstTable(f), "", "query",
					"query joins %d tables (threshold %d)", f.JoinCount+1, threshold), 0.8)}
		},
	})

	MustRegister(&Rule{
		ID:       IDReadablePassword,
		Name:     "Readable Password",
		Category: Query,
		Description: "Password columns holding recoverable plaintext " +
			"expose every account on any leak; store salted hashes.",
		Flags:   ImpactFlags{DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{Integrity: 1, Accuracy: 1},
		// No admission metadata: password columns and literals appear in
		// any statement kind, and the detector's own column-name scan
		// over extracted facts is already as cheap as any prefilter
		// could be — the derived gate admits everything.
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding {
			r := ByID(IDReadablePassword)
			var out []Finding
			if ct, ok := f.Stmt.(*sqlast.CreateTableStatement); ok {
				for _, c := range ct.Columns {
					if isPasswordName(c.Name) && schema.ClassifyType(c.Type).IsStringy() {
						out = append(out, withConfidence(
							finding(r, qi, ct.Name, c.Name, "query",
								"%s.%s looks like a plaintext password column", ct.Name, c.Name), 0.7))
					}
				}
			}
			// Literal passwords flowing through DML.
			for _, p := range f.Predicates {
				if isPasswordName(p.Column) && p.Literal != "" && (p.Op == "=" || p.Op == "==") {
					out = append(out, withConfidence(
						finding(r, qi, f.ResolveTable(p.Table), p.Column, "query",
							"query compares %s against a literal; passwords should be hashed before reaching SQL", p.Column), 0.85))
				}
			}
			if ins, ok := f.Stmt.(*sqlast.InsertStatement); ok {
				for ci, col := range ins.Columns {
					if !isPasswordName(col) {
						continue
					}
					for _, row := range f.InsertLiterals {
						if ci < len(row) && row[ci] != "" && len(row[ci]) < 20 {
							out = append(out, withConfidence(
								finding(r, qi, ins.Table, col, "query",
									"INSERT stores what looks like a plaintext password"), 0.85))
							break
						}
					}
				}
			}
			return out
		},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDReadablePassword)
			var out []Finding
			for _, cp := range tp.Columns {
				if !isPasswordName(cp.Name) {
					continue
				}
				if cp.NonNull() >= 5 && cp.FracOf(cp.PlainTextish) >= 0.8 {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s holds short unhashed-looking values", tp.Table, cp.Name), 0.9))
				}
			}
			return out
		},
	})
}

func isPasswordName(name string) bool {
	return nameMatches(name, "password", "passwd") || nameIs(name, "pwd", "pass")
}
