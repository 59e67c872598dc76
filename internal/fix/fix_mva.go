package fix

import (
	"fmt"
	"regexp"
	"strings"

	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqlast"
)

// fixMultiValuedAttribute implements the paper's flagship repair
// (§2.1.1, §6.1): replace a delimiter-separated list column with an
// intersection table, emit the DDL for it, and rewrite the queries
// that pattern-match against the list column into indexed equi-joins.
func (e *Engine) fixMultiValuedAttribute(f rules.Finding) Fix {
	table, col := f.Table, f.Column
	if table == "" {
		return Fix{Textual: "replace the delimiter-separated list column with an intersection table (one row per value)"}
	}
	if col == "" {
		col = e.guessListColumn(f)
	}
	if col == "" {
		return Fix{Textual: fmt.Sprintf("identify the list column on %s and replace it with an intersection table", table)}
	}

	t := e.tableOf(table)
	ownerKey := ""
	if t != nil && len(t.PrimaryKey) == 1 {
		ownerKey = t.PrimaryKey[0]
	}
	valueCol := singularize(col)
	xref := fmt.Sprintf("%s_%s_map", table, valueCol)

	var stmts []string
	if ownerKey != "" {
		stmts = append(stmts,
			fmt.Sprintf("CREATE TABLE %s (%s VARCHAR(30) REFERENCES %s(%s), %s VARCHAR(30) NOT NULL, PRIMARY KEY (%s, %s))",
				xref, ownerKey, table, ownerKey, valueCol, ownerKey, valueCol),
			fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s", table, col),
		)
	} else {
		stmts = append(stmts,
			fmt.Sprintf("CREATE TABLE %s (%s_key VARCHAR(30), %s VARCHAR(30) NOT NULL)", xref, table, valueCol),
			fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s", table, col),
		)
	}

	out := Fix{
		NewStatements: stmts,
		Textual: fmt.Sprintf("split each %s.%s list into rows of %s, then drop the column; "+
			"the DBMS can now index %s.%s and enforce referential integrity", table, col, xref, xref, valueCol),
	}

	// Rewrite the offending query when it has the canonical shapes.
	if sel, ok := e.stmtOf(f).(*sqlast.SelectStatement); ok && ownerKey != "" {
		if fixed := rewriteMVASelect(sel, table, col, xref, ownerKey, valueCol); fixed != nil {
			out.Rewrites = rewrite(f.QueryIndex, sel.Raw(), fixed)
		}
	}
	return out
}

// guessListColumn finds the column the finding's query pattern-matches
// against, looking in WHERE predicates and join ON clauses.
func (e *Engine) guessListColumn(f rules.Finding) string {
	if f.QueryIndex < 0 || f.QueryIndex >= len(e.ctx.Facts) {
		return ""
	}
	for _, p := range e.ctx.Facts[f.QueryIndex].Predicates {
		if p.Op == "LIKE" || p.Op == "ILIKE" || p.Op == "REGEXP" || p.Op == "RLIKE" {
			return p.Column
		}
	}
	sel, ok := e.ctx.Facts[f.QueryIndex].Stmt.(*sqlast.SelectStatement)
	if !ok {
		return ""
	}
	for _, j := range sel.Joins {
		for _, conj := range sqlast.Conjuncts(j.On) {
			be, ok := conj.(*sqlast.BinaryExpr)
			if !ok {
				continue
			}
			switch be.Op {
			case "LIKE", "ILIKE", "REGEXP", "RLIKE", "GLOB":
				if cr, ok := be.Left.(*sqlast.ColumnRef); ok {
					return cr.Column
				}
				if cr, ok := be.Right.(*sqlast.ColumnRef); ok {
					return cr.Column
				}
			}
		}
	}
	return ""
}

// singularize derives the per-value column name from the list column
// name (User_IDs -> User_ID, tags -> tag).
func singularize(col string) string {
	switch {
	case strings.HasSuffix(strings.ToLower(col), "ids"):
		return col[:len(col)-1]
	case strings.HasSuffix(strings.ToLower(col), "ses"):
		return col[:len(col)-2]
	case strings.HasSuffix(strings.ToLower(col), "s") && len(col) > 1:
		return col[:len(col)-1]
	default:
		return col + "_value"
	}
}

// patternToken extracts the searched value out of a LIKE/REGEXP
// pattern such as '%U1%' or '[[:<:]]U1[[:>:]]'.
var tokenRe = regexp.MustCompile(`[\w.@-]+`)

func patternToken(pattern string) string {
	p := strings.ReplaceAll(pattern, "[[:<:]]", "")
	p = strings.ReplaceAll(p, "[[:>:]]", "")
	p = strings.Trim(p, "%_^$")
	m := tokenRe.FindString(p)
	if m == p && m != "" {
		return m
	}
	// Pattern has structure beyond a single token: not safely
	// extractable.
	if m != "" && strings.Trim(p, "%_") == m {
		return m
	}
	return ""
}

// rewriteMVASelect rewrites the paper's Task #1 and Task #2 shapes.
func rewriteMVASelect(sel *sqlast.SelectStatement, table, col, xref, ownerKey, valueCol string) *sqlast.SelectStatement {
	if len(sel.From) != 1 || sel.From[0].Sub != nil || !strings.EqualFold(sel.From[0].Name, table) {
		return rewriteMVAJoin(sel, table, col, xref, ownerKey, valueCol)
	}
	if len(sel.Joins) > 0 {
		return rewriteMVAJoin(sel, table, col, xref, ownerKey, valueCol)
	}
	// Task #1: SELECT ... FROM t WHERE listcol LIKE '<pattern>'.
	conjs := sqlast.Conjuncts(sel.Where)
	matchIdx := -1
	var token string
	for i, c := range conjs {
		be, ok := c.(*sqlast.BinaryExpr)
		if !ok {
			continue
		}
		if be.Op != "LIKE" && be.Op != "ILIKE" && be.Op != "REGEXP" && be.Op != "RLIKE" {
			continue
		}
		cr, ok := be.Left.(*sqlast.ColumnRef)
		if !ok || !strings.EqualFold(cr.Column, col) {
			continue
		}
		lit, ok := be.Right.(*sqlast.Literal)
		if !ok {
			return nil
		}
		token = patternToken(lit.Value)
		if token == "" {
			return nil
		}
		matchIdx = i
		break
	}
	if matchIdx < 0 {
		return nil
	}
	// SELECT t.* FROM xref m JOIN t ON m.<ownerKey> = t.<ownerKey>
	// WHERE m.<valueCol> = '<token>' [AND rest...]
	alias := "t"
	fixed := &sqlast.SelectStatement{
		Distinct: sel.Distinct,
		Items:    retargetItems(sel.Items, alias),
		From:     []sqlast.TableRef{{Name: xref, Alias: "m"}},
		Joins: []sqlast.Join{{
			Kind:  "INNER",
			Table: sqlast.TableRef{Name: table, Alias: alias},
			On: &sqlast.BinaryExpr{Op: "=",
				Left:  &sqlast.ColumnRef{Table: "m", Column: ownerKey},
				Right: &sqlast.ColumnRef{Table: alias, Column: ownerKey}},
		}},
		OrderBy: sel.OrderBy,
		Limit:   sel.Limit,
		Offset:  sel.Offset,
	}
	where := sqlast.Expr(&sqlast.BinaryExpr{Op: "=",
		Left:  &sqlast.ColumnRef{Table: "m", Column: valueCol},
		Right: &sqlast.Literal{LitKind: "string", Value: token}})
	for i, cnj := range conjs {
		if i == matchIdx {
			continue
		}
		where = &sqlast.BinaryExpr{Op: "AND", Left: where, Right: qualifyExpr(cnj, alias)}
	}
	fixed.Where = where
	return fixed
}

// rewriteMVAJoin rewrites Task #2: JOIN ... ON listcol LIKE expr
// becomes an equi-join through the intersection table.
func rewriteMVAJoin(sel *sqlast.SelectStatement, table, col, xref, ownerKey, valueCol string) *sqlast.SelectStatement {
	if len(sel.From) != 1 || len(sel.Joins) != 1 {
		return nil
	}
	base := sel.From[0]
	join := sel.Joins[0]
	// Identify which side owns the list column.
	ownerRef := base
	otherRef := join.Table
	if !strings.EqualFold(base.Name, table) {
		if !strings.EqualFold(join.Table.Name, table) {
			return nil
		}
		ownerRef, otherRef = join.Table, base
	}
	// The ON clause must be a pattern match touching the list column.
	be, ok := join.On.(*sqlast.BinaryExpr)
	if !ok || (be.Op != "LIKE" && be.Op != "ILIKE" && be.Op != "REGEXP" && be.Op != "RLIKE") {
		return nil
	}
	foundList := false
	for _, cr := range sqlast.ColumnRefs(be) {
		if strings.EqualFold(cr.Column, col) {
			foundList = true
		}
	}
	if !foundList {
		return nil
	}
	// The joined value: a column of the other table appearing in the
	// pattern expression.
	var joinedVal *sqlast.ColumnRef
	for _, cr := range sqlast.ColumnRefs(be.Right) {
		if !strings.EqualFold(cr.Column, col) {
			joinedVal = cr
			break
		}
	}
	if joinedVal == nil {
		for _, cr := range sqlast.ColumnRefs(be.Left) {
			if !strings.EqualFold(cr.Column, col) {
				joinedVal = cr
			}
		}
	}
	if joinedVal == nil {
		return nil
	}
	ownerAlias := ownerRef.Alias
	if ownerAlias == "" {
		ownerAlias = ownerRef.Name
	}
	otherAlias := otherRef.Alias
	if otherAlias == "" {
		otherAlias = otherRef.Name
	}
	fixed := &sqlast.SelectStatement{
		Distinct: sel.Distinct,
		Items:    sel.Items,
		From:     []sqlast.TableRef{{Name: xref, Alias: "m"}},
		Joins: []sqlast.Join{
			{
				Kind:  "INNER",
				Table: sqlast.TableRef{Name: ownerRef.Name, Alias: ownerAlias},
				On: &sqlast.BinaryExpr{Op: "=",
					Left:  &sqlast.ColumnRef{Table: "m", Column: ownerKey},
					Right: &sqlast.ColumnRef{Table: ownerAlias, Column: ownerKey}},
			},
			{
				Kind:  "INNER",
				Table: sqlast.TableRef{Name: otherRef.Name, Alias: otherAlias},
				On: &sqlast.BinaryExpr{Op: "=",
					Left:  &sqlast.ColumnRef{Table: "m", Column: valueCol},
					Right: &sqlast.ColumnRef{Table: joinedVal.Table, Column: joinedVal.Column}},
			},
		},
		Where:   sel.Where,
		OrderBy: sel.OrderBy,
		Limit:   sel.Limit,
	}
	return fixed
}

// retargetItems qualifies bare stars with the rewritten table alias.
func retargetItems(items []sqlast.SelectItem, alias string) []sqlast.SelectItem {
	out := make([]sqlast.SelectItem, len(items))
	copy(out, items)
	for i := range out {
		if out[i].Star && out[i].StarTable == "" {
			out[i].StarTable = alias
		}
	}
	return out
}

// qualifyExpr prefixes unqualified column refs with the alias.
func qualifyExpr(e sqlast.Expr, alias string) sqlast.Expr {
	return mapExpr(e, func(x sqlast.Expr) sqlast.Expr {
		if cr, ok := x.(*sqlast.ColumnRef); ok && cr.Table == "" && cr.Column != "*" {
			return &sqlast.ColumnRef{Table: alias, Column: cr.Column}
		}
		return x
	})
}
