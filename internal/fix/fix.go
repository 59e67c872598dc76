// Package fix implements ap-fix (paper §6): rule-based repair of
// detected anti-patterns. Each repair rule is the action half of the
// paper's (detection, action) rule pairs: given a finding and the
// application context it either transforms the offending statement's
// parse tree and re-serializes it, synthesizes new DDL/DML (e.g. the
// intersection table of §2.1.1), or — when no unambiguous rewrite
// exists — returns a textual fix tailored to the context (Algorithm 4,
// line 12). The engine also computes the set of other statements
// impacted by a fix.
package fix

import (
	"fmt"
	"sort"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
)

// Rewrite is one transformed statement.
type Rewrite struct {
	QueryIndex int
	Original   string
	Fixed      string
}

// Fix is the repair suggested for one finding.
type Fix struct {
	Finding rules.Finding
	// Rewrites are unambiguous statement transformations.
	Rewrites []Rewrite
	// NewStatements are additional statements to run (new tables,
	// constraints, indexes).
	NewStatements []string
	// Textual carries guidance when automation would be ambiguous.
	Textual string
	// Impacted lists other statements the fix forces changes to.
	Impacted []int
}

// Automated reports whether the fix includes executable output.
func (f Fix) Automated() bool {
	return len(f.Rewrites) > 0 || len(f.NewStatements) > 0
}

// Engine is the query repair engine bound to one application context.
type Engine struct {
	ctx *appctx.Context
}

// New builds an engine.
func New(ctx *appctx.Context) *Engine { return &Engine{ctx: ctx} }

// repairFunc is the action half of a repair rule.
type repairFunc func(e *Engine, f rules.Finding) Fix

// repairRules maps rule IDs to their repair actions.
var repairRules = map[string]repairFunc{
	rules.IDImplicitColumns:        (*Engine).fixImplicitColumns,
	rules.IDColumnWildcard:         (*Engine).fixColumnWildcard,
	rules.IDConcatenateNulls:       (*Engine).fixConcatenateNulls,
	rules.IDMultiValuedAttribute:   (*Engine).fixMultiValuedAttribute,
	rules.IDNoPrimaryKey:           (*Engine).fixNoPrimaryKey,
	rules.IDNoForeignKey:           (*Engine).fixNoForeignKey,
	rules.IDEnumeratedTypes:        (*Engine).fixEnumeratedTypes,
	rules.IDIndexOveruse:           (*Engine).fixIndexOveruse,
	rules.IDIndexUnderuse:          (*Engine).fixIndexUnderuse,
	rules.IDOrderByRand:            (*Engine).fixOrderByRand,
	rules.IDDistinctJoin:           (*Engine).fixDistinctJoin,
	rules.IDRoundingErrors:         (*Engine).fixRoundingErrors,
	rules.IDMissingTimezone:        (*Engine).fixMissingTimezone,
	rules.IDIncorrectDataType:      (*Engine).fixIncorrectDataType,
	rules.IDRedundantColumn:        (*Engine).fixRedundantColumn,
	rules.IDNoDomainConstraint:     (*Engine).fixNoDomainConstraint,
	rules.IDInformationDuplication: (*Engine).fixInformationDuplication,
	rules.IDDenormalizedTable:      (*Engine).fixDenormalizedTable,
}

// textualOnly holds tailored guidance for rules whose fixes are never
// automatable.
var textualOnly = map[string]string{
	rules.IDGenericPrimaryKey: "rename the generic id column to a domain key (e.g. %[1]s_id) or adopt a natural key; generic ids invite duplicate logical rows",
	rules.IDDataInMetadata:    "pivot the value-bearing columns of %[1]s into rows of a child table (one row per value, with a discriminator column)",
	rules.IDAdjacencyList:     "for deep hierarchies in %[1]s, store a path enumeration or closure table, or use recursive CTEs where the DBMS optimizes them",
	rules.IDGodTable:          "split %[1]s by update pattern: group columns that change together into separate tables sharing the key",
	rules.IDCloneTable:        "merge the %[1]s clones into one table with a discriminator column (and native partitioning if volume requires it)",
	rules.IDExternalDataStorage: "store the file bytes in a BLOB column inside the transaction boundary, or keep the external store but add a checksum " +
		"column and a reconciliation job for %[1]s.%[2]s",
	rules.IDPatternMatching:  "add a full-text / trigram index for the searched column, or extract the searched token into its own indexed column",
	rules.IDTooManyJoins:     "materialize the hot join subset as a summary table, or denormalize the most-read attributes; verify the ORM is not generating the join chain",
	rules.IDReadablePassword: "store only salted password hashes (bcrypt/argon2); hash in the application before the value reaches SQL",
}

// Repair produces the fix for one finding (Algorithm 4 body).
func (e *Engine) Repair(f rules.Finding) Fix {
	if fn, ok := repairRules[f.RuleID]; ok {
		out := fn(e, f)
		out.Finding = f
		if len(out.Impacted) == 0 {
			out.Impacted = e.ImpactedQueries(f)
		}
		return out
	}
	if tpl, ok := textualOnly[f.RuleID]; ok {
		return Fix{Finding: f, Textual: fmt.Sprintf(tpl, orUnknown(f.Table), orUnknown(f.Column)),
			Impacted: e.ImpactedQueries(f)}
	}
	if r := rules.ByID(f.RuleID); r != nil && r.Guidance != "" {
		return Fix{Finding: f, Textual: r.Guidance}
	}
	return Fix{Finding: f, Textual: "no automated fix available; review " + f.Message}
}

// ImpactedQueries returns indexes of statements that reference the
// finding's site and would need revisiting after the fix (Algorithm 4,
// GetImpactedQueries).
func (e *Engine) ImpactedQueries(f rules.Finding) []int {
	if f.Table == "" {
		return nil
	}
	var out []int
	for qi, facts := range e.ctx.Facts {
		if qi == f.QueryIndex {
			continue
		}
		if f.Column != "" {
			if facts.MentionsColumn(f.Table, f.Column) {
				out = append(out, qi)
			}
			continue
		}
		if facts.MentionsTable(f.Table) {
			out = append(out, qi)
		}
	}
	sort.Ints(out)
	return out
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}

// stmtOf returns the parsed statement for a query-scoped finding.
func (e *Engine) stmtOf(f rules.Finding) sqlast.Statement {
	if f.QueryIndex < 0 || f.QueryIndex >= len(e.ctx.Facts) {
		return nil
	}
	return e.ctx.Facts[f.QueryIndex].Stmt
}

func (e *Engine) tableOf(name string) *schema.Table {
	if name == "" {
		return nil
	}
	return e.ctx.Schema.Table(name)
}

// rewrite packages a single-statement transformation.
func rewrite(qi int, original string, stmt sqlast.Statement) []Rewrite {
	return []Rewrite{{QueryIndex: qi, Original: original, Fixed: sqlast.SQL(stmt)}}
}

// ---------------------------------------------------------------------------
// Query transformations
// ---------------------------------------------------------------------------

func (e *Engine) fixImplicitColumns(f rules.Finding) Fix {
	ins, ok := e.stmtOf(f).(*sqlast.InsertStatement)
	if !ok {
		return Fix{Textual: "specify the column list explicitly in the INSERT statement"}
	}
	t := e.tableOf(ins.Table)
	if t == nil || len(t.Columns) == 0 {
		// Example 2: the intra-query rule detects, but the fix needs
		// the application context (the table's schema).
		return Fix{Textual: fmt.Sprintf("specify the column list: INSERT INTO %s (<columns...>) VALUES (...); schema for %q is not in context", ins.Table, ins.Table)}
	}
	fixed := *ins
	fixed.Columns = nil
	for _, c := range t.Columns {
		fixed.Columns = append(fixed.Columns, c.Name)
	}
	if len(ins.Rows) > 0 && len(ins.Rows[0]) != len(fixed.Columns) {
		return Fix{Textual: fmt.Sprintf("INSERT supplies %d values but %s has %d columns; align the VALUES tuple with an explicit column list",
			len(ins.Rows[0]), t.Name, len(t.Columns))}
	}
	return Fix{Rewrites: rewrite(f.QueryIndex, ins.Raw(), &fixed)}
}

func (e *Engine) fixColumnWildcard(f rules.Finding) Fix {
	sel, ok := e.stmtOf(f).(*sqlast.SelectStatement)
	if !ok {
		return Fix{Textual: "replace the wildcard with the columns the application reads"}
	}
	fixed := *sel
	fixed.Items = nil
	changed := false
	for _, it := range sel.Items {
		if !it.Star {
			fixed.Items = append(fixed.Items, it)
			continue
		}
		// Expand the star from the schema.
		expanded := false
		for _, tu := range tablesOfSelect(sel) {
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, tu.alias) && !strings.EqualFold(it.StarTable, tu.name) {
				continue
			}
			t := e.tableOf(tu.name)
			if t == nil {
				continue
			}
			qual := tu.alias
			if qual == "" && (len(sel.From)+len(sel.Joins)) > 1 {
				qual = tu.name
			}
			for _, c := range t.Columns {
				fixed.Items = append(fixed.Items, sqlast.SelectItem{
					Expr: &sqlast.ColumnRef{Table: qual, Column: c.Name},
				})
			}
			expanded = true
		}
		if !expanded {
			return Fix{Textual: "replace SELECT * with an explicit column list (table schema not in context)"}
		}
		changed = true
	}
	if !changed {
		return Fix{Textual: "replace SELECT * with an explicit column list"}
	}
	return Fix{Rewrites: rewrite(f.QueryIndex, sel.Raw(), &fixed)}
}

type tableUse struct{ name, alias string }

func tablesOfSelect(sel *sqlast.SelectStatement) []tableUse {
	var out []tableUse
	for _, t := range sel.From {
		if t.Sub == nil {
			out = append(out, tableUse{t.Name, t.Alias})
		}
	}
	for _, j := range sel.Joins {
		if j.Table.Sub == nil {
			out = append(out, tableUse{j.Table.Name, j.Table.Alias})
		}
	}
	return out
}

func (e *Engine) fixConcatenateNulls(f rules.Finding) Fix {
	sel, ok := e.stmtOf(f).(*sqlast.SelectStatement)
	if !ok {
		return Fix{Textual: "wrap nullable operands of || in COALESCE(col, '')"}
	}
	nullable := func(cr *sqlast.ColumnRef) bool {
		// Rewrite the specific column the finding names; with schema,
		// any nullable column in the concatenation.
		if strings.EqualFold(cr.Column, f.Column) {
			return true
		}
		for _, tu := range tablesOfSelect(sel) {
			if t := e.tableOf(tu.name); t != nil {
				if c := t.Column(cr.Column); c != nil {
					return !c.NotNull
				}
			}
		}
		return false
	}
	fixed := *sel
	fixed.Items = make([]sqlast.SelectItem, len(sel.Items))
	copy(fixed.Items, sel.Items)
	changed := false
	for i, it := range fixed.Items {
		if it.Star || it.Expr == nil {
			continue
		}
		newExpr := mapExpr(it.Expr, func(x sqlast.Expr) sqlast.Expr {
			be, ok := x.(*sqlast.BinaryExpr)
			if !ok || be.Op != "||" {
				return x
			}
			nb := *be
			for _, side := range []*sqlast.Expr{&nb.Left, &nb.Right} {
				if cr, ok := (*side).(*sqlast.ColumnRef); ok && nullable(cr) {
					*side = &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{cr, &sqlast.Literal{LitKind: "string", Value: ""}}}
					changed = true
				}
			}
			return &nb
		})
		fixed.Items[i].Expr = newExpr
	}
	if !changed {
		return Fix{Textual: "wrap nullable operands of || in COALESCE(col, '')"}
	}
	return Fix{Rewrites: rewrite(f.QueryIndex, sel.Raw(), &fixed)}
}

// mapExpr rebuilds an expression bottom-up, applying fn to every node.
func mapExpr(e sqlast.Expr, fn func(sqlast.Expr) sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		nb := *x
		nb.Left = mapExpr(x.Left, fn)
		nb.Right = mapExpr(x.Right, fn)
		return fn(&nb)
	case *sqlast.UnaryExpr:
		nu := *x
		nu.X = mapExpr(x.X, fn)
		return fn(&nu)
	case *sqlast.FuncCall:
		nf := *x
		nf.Args = make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			nf.Args[i] = mapExpr(a, fn)
		}
		return fn(&nf)
	case *sqlast.ExprList:
		nl := *x
		nl.Items = make([]sqlast.Expr, len(x.Items))
		for i, it := range x.Items {
			nl.Items[i] = mapExpr(it, fn)
		}
		return fn(&nl)
	case *sqlast.CaseExpr:
		nc := *x
		nc.Whens = make([]sqlast.Expr, len(x.Whens))
		for i, w := range x.Whens {
			nc.Whens[i] = mapExpr(w, fn)
		}
		nc.Thens = make([]sqlast.Expr, len(x.Thens))
		for i, th := range x.Thens {
			nc.Thens[i] = mapExpr(th, fn)
		}
		nc.Else = mapExpr(x.Else, fn)
		return fn(&nc)
	default:
		return fn(e)
	}
}

func (e *Engine) fixOrderByRand(f rules.Finding) Fix {
	sel, ok := e.stmtOf(f).(*sqlast.SelectStatement)
	if !ok {
		return Fix{Textual: "replace ORDER BY RAND() with key-based sampling"}
	}
	table := ""
	if len(sel.From) > 0 {
		table = sel.From[0].Name
	}
	key := "id"
	if t := e.tableOf(table); t != nil && len(t.PrimaryKey) == 1 {
		key = t.PrimaryKey[0]
	}
	return Fix{Textual: fmt.Sprintf(
		"avoid ORDER BY RAND(): pick a random key first (e.g. SELECT ... FROM %s WHERE %s >= <random key> ORDER BY %s LIMIT n), or sample ids in the application",
		orUnknown(table), key, key)}
}

func (e *Engine) fixDistinctJoin(f rules.Finding) Fix {
	sel, ok := e.stmtOf(f).(*sqlast.SelectStatement)
	if !ok || len(sel.Joins) != 1 || len(sel.From) != 1 {
		return Fix{Textual: "replace DISTINCT-over-JOIN with WHERE EXISTS (semi-join) against the joined table"}
	}
	// Rewrite SELECT DISTINCT <outer cols> FROM a JOIN b ON cond
	// as SELECT <outer cols> FROM a WHERE EXISTS (SELECT 1 FROM b WHERE cond)
	// when the select list only touches the outer table.
	outer := sel.From[0]
	inner := sel.Joins[0]
	outerNames := map[string]bool{
		strings.ToLower(outer.Name):  true,
		strings.ToLower(outer.Alias): true,
	}
	for _, it := range sel.Items {
		if it.Star && it.StarTable == "" {
			return Fix{Textual: "replace DISTINCT-over-JOIN with WHERE EXISTS; SELECT * mixes both tables so the rewrite is ambiguous"}
		}
		refs := sqlast.ColumnRefs(it.Expr)
		if it.Star {
			if !outerNames[strings.ToLower(it.StarTable)] {
				return Fix{Textual: "replace DISTINCT-over-JOIN with WHERE EXISTS against the joined table"}
			}
			continue
		}
		for _, r := range refs {
			if r.Table != "" && !outerNames[strings.ToLower(r.Table)] {
				return Fix{Textual: "replace DISTINCT-over-JOIN with WHERE EXISTS against the joined table"}
			}
		}
	}
	sub := &sqlast.SelectStatement{
		Items: []sqlast.SelectItem{{Expr: &sqlast.Literal{LitKind: "number", Value: "1"}}},
		From:  []sqlast.TableRef{inner.Table},
		Where: inner.On,
	}
	exists := &sqlast.FuncCall{Name: "EXISTS", Args: []sqlast.Expr{&sqlast.SubQuery{Select: sub}}}
	fixed := *sel
	fixed.Distinct = false
	fixed.Joins = nil
	if fixed.Where != nil {
		fixed.Where = &sqlast.BinaryExpr{Op: "AND", Left: fixed.Where, Right: exists}
	} else {
		fixed.Where = exists
	}
	return Fix{Rewrites: rewrite(f.QueryIndex, sel.Raw(), &fixed)}
}

// ---------------------------------------------------------------------------
// Schema transformations
// ---------------------------------------------------------------------------

func (e *Engine) fixNoPrimaryKey(f rules.Finding) Fix {
	t := e.tableOf(f.Table)
	candidate := ""
	if t != nil {
		for _, c := range t.Columns {
			if c.Unique {
				candidate = c.Name
				break
			}
		}
		if candidate == "" {
			for _, c := range t.Columns {
				if strings.HasSuffix(strings.ToLower(c.Name), "_id") || strings.EqualFold(c.Name, "id") {
					candidate = c.Name
					break
				}
			}
		}
	}
	if candidate == "" {
		return Fix{Textual: fmt.Sprintf("declare a primary key on %s (add a surrogate key if no natural key exists)", orUnknown(f.Table))}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf("ALTER TABLE %s ADD CONSTRAINT %s_pkey PRIMARY KEY (%s)", f.Table, f.Table, candidate)},
		Textual:       fmt.Sprintf("verify %s.%s is unique and non-null before adding the key", f.Table, candidate),
	}
}

func (e *Engine) fixNoForeignKey(f rules.Finding) Fix {
	// Recover the join edge behind the finding.
	for _, edge := range e.ctx.JoinEdges() {
		var owner, ownerCol, ref, refCol string
		switch {
		case strings.EqualFold(edge.RightTable, f.Table) && strings.EqualFold(edge.RightColumn, f.Column):
			owner, ownerCol, ref, refCol = edge.RightTable, edge.RightColumn, edge.LeftTable, edge.LeftColumn
		case strings.EqualFold(edge.LeftTable, f.Table) && strings.EqualFold(edge.LeftColumn, f.Column):
			owner, ownerCol, ref, refCol = edge.LeftTable, edge.LeftColumn, edge.RightTable, edge.RightColumn
		default:
			continue
		}
		// Point the FK at the side owning the key (pk/unique column).
		if rt := e.tableOf(ref); rt != nil && !isKeyColumn(rt, refCol) {
			if ot := e.tableOf(owner); ot != nil && isKeyColumn(ot, ownerCol) {
				owner, ownerCol, ref, refCol = ref, refCol, owner, ownerCol
			}
		}
		// Restore original identifier casing from the catalog (join
		// edges are normalized to lower case).
		if t := e.tableOf(owner); t != nil {
			owner = t.Name
			if c := t.Column(ownerCol); c != nil {
				ownerCol = c.Name
			}
		}
		if t := e.tableOf(ref); t != nil {
			ref = t.Name
			if c := t.Column(refCol); c != nil {
				refCol = c.Name
			}
		}
		return Fix{NewStatements: []string{fmt.Sprintf(
			"ALTER TABLE %s ADD CONSTRAINT fk_%s_%s FOREIGN KEY (%s) REFERENCES %s(%s)",
			owner, strings.ToLower(owner), strings.ToLower(ownerCol), ownerCol, ref, refCol)}}
	}
	// Naming-convention finding: <table>_id column.
	if f.Column != "" {
		base := strings.TrimSuffix(strings.ToLower(f.Column), "_id")
		for _, cand := range []string{base, base + "s", base + "es"} {
			if rt := e.tableOf(cand); rt != nil && len(rt.PrimaryKey) == 1 {
				return Fix{NewStatements: []string{fmt.Sprintf(
					"ALTER TABLE %s ADD CONSTRAINT fk_%s_%s FOREIGN KEY (%s) REFERENCES %s(%s)",
					f.Table, strings.ToLower(f.Table), strings.ToLower(f.Column), f.Column, rt.Name, rt.PrimaryKey[0])}}
			}
		}
	}
	return Fix{Textual: fmt.Sprintf("declare the foreign key relating %s.%s to its referenced table", orUnknown(f.Table), orUnknown(f.Column))}
}

func isKeyColumn(t *schema.Table, col string) bool {
	for _, pk := range t.PrimaryKey {
		if strings.EqualFold(pk, col) {
			return true
		}
	}
	if c := t.Column(col); c != nil && c.Unique {
		return true
	}
	return false
}

func (e *Engine) fixEnumeratedTypes(f rules.Finding) Fix {
	// The paper's Figure 5 refactoring: a lookup table plus an integer
	// foreign key column.
	table, col := f.Table, f.Column
	if table == "" || col == "" {
		return Fix{Textual: "replace the ENUM/CHECK-constrained column with a lookup table and a foreign key"}
	}
	lookup := col + "_lookup"
	var values []string
	if t := e.tableOf(table); t != nil {
		if c := t.Column(col); c != nil {
			if len(c.CheckInValues) > 0 {
				values = c.CheckInValues
			} else if c.Class == schema.ClassEnum {
				values = c.TypeParams
			}
		}
	}
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (%s_id INTEGER PRIMARY KEY, %s_name VARCHAR(30) NOT NULL UNIQUE)", lookup, col, col),
	}
	for i, v := range values {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s (%s_id, %s_name) VALUES (%d, '%s')",
			lookup, col, col, i+1, strings.ReplaceAll(v, "'", "''")))
	}
	stmts = append(stmts,
		fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s_id INTEGER REFERENCES %s(%s_id)", table, col, lookup, col),
	)
	return Fix{
		NewStatements: stmts,
		Textual: fmt.Sprintf("backfill %s.%s_id from %s, drop the CHECK/ENUM on %s.%s, then drop the old column; "+
			"renaming a value becomes a one-row UPDATE on %s", table, col, lookup, table, col, lookup),
	}
}

func (e *Engine) fixIndexOveruse(f rules.Finding) Fix {
	// Finding.Column carries the index name for overuse findings.
	if f.Column == "" {
		return Fix{Textual: "drop the redundant index"}
	}
	return Fix{NewStatements: []string{fmt.Sprintf("DROP INDEX %s", f.Column)}}
}

func (e *Engine) fixIndexUnderuse(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "create an index on the frequently filtered column"}
	}
	return Fix{NewStatements: []string{fmt.Sprintf(
		"CREATE INDEX idx_%s_%s ON %s (%s)",
		strings.ToLower(f.Table), strings.ToLower(f.Column), f.Table, f.Column)}}
}

func (e *Engine) fixRoundingErrors(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "store fractional quantities as NUMERIC/DECIMAL"}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf("ALTER TABLE %s ALTER COLUMN %s NUMERIC(18, 4)", f.Table, f.Column)},
		Textual:       "choose precision/scale to match the quantity (money commonly NUMERIC(18,4))",
	}
}

func (e *Engine) fixMissingTimezone(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "store timestamps with time zone"}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf("ALTER TABLE %s ALTER COLUMN %s TIMESTAMP WITH TIME ZONE", f.Table, f.Column)},
		Textual:       "backfill existing values with the zone they were recorded in before altering the type",
	}
}

func (e *Engine) fixIncorrectDataType(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "store the values in their natural type"}
	}
	target := "INTEGER"
	if tp := e.ctx.Profile(f.Table); tp != nil {
		if cp := tp.Column(f.Column); cp != nil {
			switch {
			case cp.FracOf(cp.DateLike) >= 0.9:
				target = "DATE"
			case cp.FracOf(cp.FloatLike) > 0:
				target = "NUMERIC(18, 4)"
			}
		}
	}
	return Fix{NewStatements: []string{fmt.Sprintf("ALTER TABLE %s ALTER COLUMN %s %s", f.Table, f.Column, target)}}
}

func (e *Engine) fixRedundantColumn(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "drop the redundant column"}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s", f.Table, f.Column)},
		Textual:       "confirm no consumer reads the column before dropping it",
	}
}

func (e *Engine) fixNoDomainConstraint(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "add a CHECK constraint for the column's domain"}
	}
	lo, hi := "<min>", "<max>"
	if tp := e.ctx.Profile(f.Table); tp != nil {
		if cp := tp.Column(f.Column); cp != nil && cp.NumericCount > 0 {
			lo = fmt.Sprintf("%g", cp.Min)
			hi = fmt.Sprintf("%g", cp.Max)
		}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf(
			"ALTER TABLE %s ADD CONSTRAINT %s_%s_domain CHECK (%s BETWEEN %s AND %s)",
			f.Table, strings.ToLower(f.Table), strings.ToLower(f.Column), f.Column, lo, hi)},
		Textual: "confirm the observed range is the intended domain before enforcing it",
	}
}

func (e *Engine) fixInformationDuplication(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "drop the derived column and compute it in queries (or a view)"}
	}
	return Fix{
		NewStatements: []string{fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s", f.Table, f.Column)},
		Textual:       fmt.Sprintf("compute %s at query time (expression or view) instead of storing it", f.Column),
	}
}

func (e *Engine) fixDenormalizedTable(f rules.Finding) Fix {
	if f.Table == "" || f.Column == "" {
		return Fix{Textual: "extract the functionally dependent columns into their own table"}
	}
	return Fix{Textual: fmt.Sprintf(
		"extract %s.%s (and the columns it depends on) into a separate table keyed by the determinant, and reference it by foreign key",
		f.Table, f.Column)}
}
