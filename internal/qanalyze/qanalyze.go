// Package qanalyze extracts per-statement facts from parsed SQL — the
// query-analysis half of ap-detect (paper §4.1). The facts feed both
// intra-query rules (which look at one statement's facts) and the
// context builder (which aggregates facts across the whole
// application for inter-query rules).
package qanalyze

import (
	"strings"

	"sqlcheck/internal/sqlast"
)

// TableUse records one table appearing in a statement.
type TableUse struct {
	Name  string
	Alias string
}

// ColumnUse records one column reference with its access role.
type ColumnUse struct {
	Table  string // alias or table name as written; may be ""
	Column string
	// Role is one of "select", "predicate", "join", "group", "order",
	// "set", "insert".
	Role string
}

// JoinEquality is an equality join condition between two columns.
type JoinEquality struct {
	LeftTable, LeftColumn   string
	RightTable, RightColumn string
}

// PredicateFact describes a WHERE/HAVING conjunct over a column.
type PredicateFact struct {
	Table  string
	Column string
	// Op is the comparison operator (=, <, LIKE, REGEXP, IN, ...).
	Op string
	// Literal is the compared literal value when there is one.
	Literal string
	// LeadingWildcard marks LIKE '%...' patterns that defeat indexes.
	LeadingWildcard bool
}

// Facts is everything the rules need to know about one statement.
type Facts struct {
	Stmt sqlast.Statement
	Kind sqlast.StatementKind
	// Raw is the original SQL text.
	Raw string

	Tables  []TableUse
	Columns []ColumnUse

	// SELECT facts.
	SelectStar      bool
	Distinct        bool
	JoinCount       int
	JoinEqualities  []JoinEquality
	ExprJoin        bool // join ON uses LIKE/REGEXP/expressions, not equality
	Predicates      []PredicateFact
	GroupByColumns  []string
	OrderByRand     bool
	PatternMatching bool // LIKE with leading wildcard or REGEXP anywhere
	ConcatColumns   []ColumnUse

	// INSERT facts.
	InsertNoColumns bool
	InsertColumns   []string
	InsertLiterals  [][]string // literal texts per row, for data-in-query rules

	// UPDATE facts.
	SetColumns []string

	// DDL facts are carried by the statement itself (rules inspect the
	// AST); Facts only mirrors what needs cross-query aggregation.
	CreatesTable string
	CreatesIndex *IndexFact
}

// IndexFact summarizes a CREATE INDEX.
type IndexFact struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// Analyze extracts facts from one parsed statement.
func Analyze(stmt sqlast.Statement) *Facts {
	f := &Facts{Stmt: stmt, Kind: stmt.Kind(), Raw: stmt.Raw()}
	switch s := stmt.(type) {
	case *sqlast.SelectStatement:
		analyzeSelect(f, s, true)
	case *sqlast.InsertStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Table})
		f.InsertNoColumns = len(s.Columns) == 0 && len(s.Rows) > 0
		f.InsertColumns = s.Columns
		for _, c := range s.Columns {
			f.Columns = append(f.Columns, ColumnUse{Table: s.Table, Column: c, Role: "insert"})
		}
		for _, row := range s.Rows {
			var lits []string
			for _, e := range row {
				if lit, ok := e.(*sqlast.Literal); ok {
					lits = append(lits, lit.Value)
				} else {
					lits = append(lits, "")
				}
			}
			f.InsertLiterals = append(f.InsertLiterals, lits)
		}
		if s.Select != nil {
			analyzeSelect(f, s.Select, false)
		}
	case *sqlast.UpdateStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Table, Alias: s.Alias})
		for _, a := range s.Set {
			f.SetColumns = append(f.SetColumns, a.Column.Column)
			f.Columns = append(f.Columns, ColumnUse{Table: orAlias(a.Column.Table, s.Table), Column: a.Column.Column, Role: "set"})
		}
		analyzeWhere(f, s.Where, s.Table, s.Alias)
	case *sqlast.DeleteStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Table})
		analyzeWhere(f, s.Where, s.Table, "")
	case *sqlast.CreateTableStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Name})
		f.CreatesTable = s.Name
	case *sqlast.CreateIndexStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Table})
		f.CreatesIndex = &IndexFact{Name: s.Name, Table: s.Table, Columns: s.Columns, Unique: s.Unique}
	case *sqlast.AlterTableStatement:
		f.Tables = append(f.Tables, TableUse{Name: s.Table})
	}
	return f
}

// AnalyzeAll analyzes each statement.
func AnalyzeAll(stmts []sqlast.Statement) []*Facts {
	out := make([]*Facts, len(stmts))
	for i, s := range stmts {
		out[i] = Analyze(s)
	}
	return out
}

func orAlias(t, def string) string {
	if t != "" {
		return t
	}
	return def
}

func analyzeSelect(f *Facts, s *sqlast.SelectStatement, top bool) {
	for _, t := range s.From {
		if t.Sub != nil {
			analyzeSelect(f, t.Sub, false)
			continue
		}
		f.Tables = append(f.Tables, TableUse{Name: t.Name, Alias: t.Alias})
	}
	baseTable, baseAlias := "", ""
	if len(s.From) > 0 && s.From[0].Sub == nil {
		baseTable, baseAlias = s.From[0].Name, s.From[0].Alias
	}
	if top {
		f.Distinct = f.Distinct || s.Distinct
	}
	for _, it := range s.Items {
		if it.Star {
			if top {
				f.SelectStar = true
			}
			continue
		}
		for _, cr := range sqlast.ColumnRefs(it.Expr) {
			f.Columns = append(f.Columns, ColumnUse{Table: cr.Table, Column: cr.Column, Role: "select"})
		}
		// || concatenation over columns (concatenate-nulls candidate).
		sqlast.WalkExpr(it.Expr, func(e sqlast.Expr) bool {
			if be, ok := e.(*sqlast.BinaryExpr); ok && be.Op == "||" {
				for _, side := range []sqlast.Expr{be.Left, be.Right} {
					if cr, ok := side.(*sqlast.ColumnRef); ok {
						f.ConcatColumns = append(f.ConcatColumns, ColumnUse{Table: cr.Table, Column: cr.Column, Role: "select"})
					}
				}
			}
			return true
		})
	}
	// Joins: count comma-list tables beyond the first plus explicit
	// JOIN clauses; record equality conditions.
	if len(s.From) > 1 {
		f.JoinCount += len(s.From) - 1
	}
	f.JoinCount += len(s.Joins)
	for _, j := range s.Joins {
		if j.Table.Sub != nil {
			analyzeSelect(f, j.Table.Sub, false)
		} else {
			f.Tables = append(f.Tables, TableUse{Name: j.Table.Name, Alias: j.Table.Alias})
		}
		if len(j.Using) > 0 {
			for _, c := range j.Using {
				f.JoinEqualities = append(f.JoinEqualities, JoinEquality{
					LeftTable: firstNonEmpty(baseAlias, baseTable), LeftColumn: c,
					RightTable: firstNonEmpty(j.Table.Alias, j.Table.Name), RightColumn: c,
				})
			}
			continue
		}
		eqFound := false
		for _, conj := range splitAnd(j.On) {
			be, ok := conj.(*sqlast.BinaryExpr)
			if !ok {
				continue
			}
			switch be.Op {
			case "=", "==":
				l, lok := be.Left.(*sqlast.ColumnRef)
				r, rok := be.Right.(*sqlast.ColumnRef)
				if lok && rok {
					eqFound = true
					f.JoinEqualities = append(f.JoinEqualities, JoinEquality{
						LeftTable: l.Table, LeftColumn: l.Column,
						RightTable: r.Table, RightColumn: r.Column,
					})
					f.Columns = append(f.Columns,
						ColumnUse{Table: l.Table, Column: l.Column, Role: "join"},
						ColumnUse{Table: r.Table, Column: r.Column, Role: "join"})
				}
			case "LIKE", "ILIKE", "REGEXP", "RLIKE", "GLOB", "SIMILAR TO":
				f.ExprJoin = true
				f.PatternMatching = true
			}
		}
		if j.On != nil && !eqFound {
			f.ExprJoin = true
		}
	}
	analyzeWhere(f, s.Where, baseTable, baseAlias)
	for _, g := range s.GroupBy {
		if cr, ok := g.(*sqlast.ColumnRef); ok {
			f.GroupByColumns = append(f.GroupByColumns, cr.Column)
			f.Columns = append(f.Columns, ColumnUse{Table: cr.Table, Column: cr.Column, Role: "group"})
		}
	}
	for _, o := range s.OrderBy {
		if fc, ok := o.Expr.(*sqlast.FuncCall); ok && (fc.Name == "RAND" || fc.Name == "RANDOM") {
			f.OrderByRand = true
		}
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok {
			f.Columns = append(f.Columns, ColumnUse{Table: cr.Table, Column: cr.Column, Role: "order"})
		}
	}
	for _, u := range s.Setop {
		analyzeSelect(f, u, top)
	}
	for _, c := range s.With {
		if c.Select != nil {
			analyzeSelect(f, c.Select, false)
		}
	}
}

func analyzeWhere(f *Facts, where sqlast.Expr, table, alias string) {
	for _, conj := range splitAnd(where) {
		be, ok := conj.(*sqlast.BinaryExpr)
		if !ok {
			continue
		}
		cr, lit := predicateParts(be)
		if cr == nil {
			continue
		}
		p := PredicateFact{
			Table:  orAlias(cr.Table, firstNonEmpty(alias, table)),
			Column: cr.Column,
			Op:     be.Op,
		}
		if lit != nil {
			p.Literal = lit.Value
			if (be.Op == "LIKE" || be.Op == "ILIKE") && strings.HasPrefix(lit.Value, "%") {
				p.LeadingWildcard = true
			}
		}
		switch be.Op {
		case "LIKE", "ILIKE":
			if p.LeadingWildcard || strings.Contains(p.Literal, "[[:") {
				f.PatternMatching = true
			}
		case "REGEXP", "RLIKE", "SIMILAR TO", "GLOB":
			f.PatternMatching = true
		}
		f.Predicates = append(f.Predicates, p)
		f.Columns = append(f.Columns, ColumnUse{Table: cr.Table, Column: cr.Column, Role: "predicate"})
	}
}

// predicateParts pulls the column side and (optional) literal side out
// of a binary predicate.
func predicateParts(be *sqlast.BinaryExpr) (*sqlast.ColumnRef, *sqlast.Literal) {
	if cr, ok := be.Left.(*sqlast.ColumnRef); ok {
		lit, _ := be.Right.(*sqlast.Literal)
		return cr, lit
	}
	if cr, ok := be.Right.(*sqlast.ColumnRef); ok {
		lit, _ := be.Left.(*sqlast.Literal)
		return cr, lit
	}
	return nil, nil
}

func splitAnd(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlast.BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sqlast.Expr{e}
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// ResolveTable maps a table alias used in the statement back to the
// real table name ("" if unknown).
func (f *Facts) ResolveTable(aliasOrName string) string {
	for _, t := range f.Tables {
		if strings.EqualFold(t.Alias, aliasOrName) || strings.EqualFold(t.Name, aliasOrName) {
			return t.Name
		}
	}
	return ""
}

// MentionsTable reports whether the statement references the table.
func (f *Facts) MentionsTable(name string) bool {
	for _, t := range f.Tables {
		if strings.EqualFold(t.Name, name) {
			return true
		}
	}
	return false
}

// MentionsColumn reports whether the statement references
// table.column (table resolution through aliases).
func (f *Facts) MentionsColumn(table, column string) bool {
	for _, c := range f.Columns {
		if !strings.EqualFold(c.Column, column) {
			continue
		}
		if c.Table == "" {
			if len(f.Tables) == 1 && strings.EqualFold(f.Tables[0].Name, table) {
				return true
			}
			continue
		}
		if strings.EqualFold(f.ResolveTable(c.Table), table) {
			return true
		}
	}
	return false
}
