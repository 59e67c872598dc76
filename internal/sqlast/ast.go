// Package sqlast defines the annotated parse tree produced by the
// non-validating parser (internal/parser) and consumed by ap-detect
// and ap-fix. The tree intentionally tolerates partial information: any
// construct the parser could not understand is preserved as a Raw node
// holding its original tokens, so detection rules degrade gracefully
// instead of failing on exotic dialect syntax (paper §4.1).
package sqlast

import "sqlcheck/internal/sqltoken"

// StatementKind classifies a parsed statement.
type StatementKind int

// Statement kinds recognized by the parser. KindOther covers any
// statement the parser does not model structurally (GRANT, PRAGMA, …);
// its text remains available.
const (
	KindOther StatementKind = iota
	KindSelect
	KindInsert
	KindUpdate
	KindDelete
	KindCreateTable
	KindCreateIndex
	KindAlterTable
	KindDropTable
	KindDropIndex
	KindCreateView
)

var kindNames = map[StatementKind]string{
	KindOther:       "OTHER",
	KindSelect:      "SELECT",
	KindInsert:      "INSERT",
	KindUpdate:      "UPDATE",
	KindDelete:      "DELETE",
	KindCreateTable: "CREATE TABLE",
	KindCreateIndex: "CREATE INDEX",
	KindAlterTable:  "ALTER TABLE",
	KindDropTable:   "DROP TABLE",
	KindDropIndex:   "DROP INDEX",
	KindCreateView:  "CREATE VIEW",
}

// String returns the SQL verb for the statement kind.
func (k StatementKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "OTHER"
}

// Valid reports whether k is a kind the parser can produce. Rule
// metadata validation uses it to reject declarations naming kinds no
// statement will ever carry, which would make a dispatch gate reject
// everything.
func (k StatementKind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Statement is any parsed SQL statement.
type Statement interface {
	Kind() StatementKind
	// Raw returns the original statement text.
	Raw() string
}

// Base carries the source text shared by all statements. A statement
// holds no token slice: the parser's tokens are transient, so a cached
// AST retains only its nodes and the text their strings point into.
type Base struct {
	Text string
}

// Raw returns the original statement text.
func (b *Base) Raw() string { return b.Text }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is a parsed scalar expression.
type Expr interface{ isExpr() }

// ColumnRef names a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table  string // may be ""
	Column string // "*" for wildcards
}

// Literal is a string, numeric, boolean, or NULL literal.
type Literal struct {
	// LitKind is one of "string", "number", "bool", "null".
	LitKind string
	// Value is the literal text; for strings the quotes are stripped.
	Value string
}

// Placeholder is a bind parameter (?, $1, :name, %s).
type Placeholder struct{ Text string }

// BinaryExpr is a binary operation. Op is upper-cased for word
// operators (AND, OR, LIKE, IN, REGEXP, …) and literal for symbols.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
	// Not is set for NOT LIKE / NOT IN / IS NOT.
	Not bool
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is a function invocation.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// ExprList is a parenthesized list, e.g. the right side of IN.
type ExprList struct{ Items []Expr }

// SubQuery wraps a nested SELECT used as an expression.
type SubQuery struct{ Select *SelectStatement }

// CaseExpr is a CASE WHEN expression; only the pieces detection needs.
type CaseExpr struct {
	Whens []Expr
	Thens []Expr
	Else  Expr
}

// Raw preserves token runs the expression parser could not structure.
type Raw struct{ Tokens []sqltoken.Token }

func (*ColumnRef) isExpr()   {}
func (*Literal) isExpr()     {}
func (*Placeholder) isExpr() {}
func (*BinaryExpr) isExpr()  {}
func (*UnaryExpr) isExpr()   {}
func (*FuncCall) isExpr()    {}
func (*ExprList) isExpr()    {}
func (*SubQuery) isExpr()    {}
func (*CaseExpr) isExpr()    {}
func (*Raw) isExpr()         {}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SelectItem is one entry of a select list.
type SelectItem struct {
	Expr  Expr
	Alias string
	// Star marks a bare * or table.* wildcard item.
	Star bool
	// StarTable is the table qualifier of a table.* item.
	StarTable string
}

// TableRef is a table in a FROM clause.
type TableRef struct {
	Name  string
	Alias string
	// Sub is set when the "table" is a parenthesized subquery.
	Sub *SelectStatement
}

// JoinKind is INNER, LEFT, RIGHT, FULL, or CROSS.
type JoinKind string

// Join is one JOIN clause attached to the FROM list.
type Join struct {
	Kind  JoinKind
	Table TableRef
	On    Expr // nil for CROSS or comma joins
	Using []string
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStatement models a SELECT query.
type SelectStatement struct {
	Base
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr
	Offset   Expr
	// Setop chains UNION/INTERSECT/EXCEPT selects.
	Setop []*SelectStatement
	// With holds CTE definitions (name -> select), in order.
	With []CTE
}

// CTE is one common-table-expression in a WITH clause.
type CTE struct {
	Name      string
	Recursive bool
	Select    *SelectStatement
}

// Kind implements Statement.
func (*SelectStatement) Kind() StatementKind { return KindSelect }

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// InsertStatement models INSERT INTO.
type InsertStatement struct {
	Base
	Table   string
	Columns []string // empty when the column list is omitted
	// Rows holds VALUES tuples; nil when inserting from a SELECT.
	Rows   [][]Expr
	Select *SelectStatement
	// OrReplace marks INSERT OR REPLACE / REPLACE INTO.
	OrReplace bool
}

// Kind implements Statement.
func (*InsertStatement) Kind() StatementKind { return KindInsert }

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column ColumnRef
	Value  Expr
}

// UpdateStatement models UPDATE ... SET ... WHERE.
type UpdateStatement struct {
	Base
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

// Kind implements Statement.
func (*UpdateStatement) Kind() StatementKind { return KindUpdate }

// DeleteStatement models DELETE FROM ... WHERE.
type DeleteStatement struct {
	Base
	Table string
	Where Expr
}

// Kind implements Statement.
func (*DeleteStatement) Kind() StatementKind { return KindDelete }

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name string
	// Type is the raw type name upper-cased, without parameters
	// (VARCHAR, INT, FLOAT, ENUM, …).
	Type string
	// TypeParams holds parenthesized type arguments: lengths for
	// VARCHAR(10), the value list for ENUM('a','b').
	TypeParams []string
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	// AutoIncrement marks AUTO_INCREMENT/AUTOINCREMENT/SERIAL columns.
	AutoIncrement bool
	Default       Expr
	// References is a column-level REFERENCES clause.
	References *ForeignKeyRef
	// Check is a column-level CHECK constraint expression.
	Check Expr
}

// ForeignKeyRef is the target of a REFERENCES clause.
type ForeignKeyRef struct {
	Table    string
	Columns  []string
	OnDelete string // "", "CASCADE", "SET NULL", "RESTRICT", ...
	OnUpdate string
}

// TableConstraint is a table-level constraint in CREATE TABLE or ALTER
// TABLE ADD CONSTRAINT.
type TableConstraint struct {
	Name string // constraint name; may be ""
	// CKind is "PRIMARY KEY", "FOREIGN KEY", "UNIQUE", or "CHECK".
	CKind   string
	Columns []string
	Ref     *ForeignKeyRef // FOREIGN KEY only
	Check   Expr           // CHECK only
}

// CreateTableStatement models CREATE TABLE.
type CreateTableStatement struct {
	Base
	Name        string
	IfNotExists bool
	Temporary   bool
	Columns     []ColumnDef
	Constraints []TableConstraint
	// AsSelect is set for CREATE TABLE ... AS SELECT.
	AsSelect *SelectStatement
}

// Kind implements Statement.
func (*CreateTableStatement) Kind() StatementKind { return KindCreateTable }

// CreateIndexStatement models CREATE [UNIQUE] INDEX.
type CreateIndexStatement struct {
	Base
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// Kind implements Statement.
func (*CreateIndexStatement) Kind() StatementKind { return KindCreateIndex }

// AlterAction is the verb of an ALTER TABLE statement.
type AlterAction int

// Alter table actions the parser recognizes.
const (
	AlterOther AlterAction = iota
	AlterAddColumn
	AlterDropColumn
	AlterAddConstraint
	AlterDropConstraint
	AlterRename
	AlterAlterColumn
)

// AlterTableStatement models ALTER TABLE.
type AlterTableStatement struct {
	Base
	Table      string
	Action     AlterAction
	Column     *ColumnDef       // AlterAddColumn / AlterAlterColumn
	DropColumn string           // AlterDropColumn
	Constraint *TableConstraint // AlterAddConstraint
	DropName   string           // AlterDropConstraint
	NewName    string           // AlterRename
	// IfExists applies to DROP CONSTRAINT IF EXISTS.
	IfExists bool
}

// Kind implements Statement.
func (*AlterTableStatement) Kind() StatementKind { return KindAlterTable }

// DropStatement models DROP TABLE / DROP INDEX.
type DropStatement struct {
	Base
	DropKind StatementKind // KindDropTable or KindDropIndex
	Name     string
	IfExists bool
}

// Kind implements Statement.
func (d *DropStatement) Kind() StatementKind { return d.DropKind }

// OtherStatement preserves statements the parser does not model.
type OtherStatement struct {
	Base
	// Verb is the first keyword of the statement, upper-cased.
	Verb string
}

// Kind implements Statement.
func (*OtherStatement) Kind() StatementKind { return KindOther }

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

// WalkExpr calls fn for every node of the expression tree rooted at e,
// in pre-order. If fn returns false the node's children are skipped.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *ExprList:
		for _, it := range x.Items {
			WalkExpr(it, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w, fn)
		}
		for _, t := range x.Thens {
			WalkExpr(t, fn)
		}
		WalkExpr(x.Else, fn)
	case *SubQuery:
		if x.Select != nil {
			WalkExprs(x.Select, fn)
		}
	}
}

// WalkExprs walks every expression appearing anywhere in the statement.
func WalkExprs(stmt Statement, fn func(Expr) bool) {
	switch s := stmt.(type) {
	case *SelectStatement:
		for _, it := range s.Items {
			WalkExpr(it.Expr, fn)
		}
		for _, j := range s.Joins {
			WalkExpr(j.On, fn)
			if j.Table.Sub != nil {
				WalkExprs(j.Table.Sub, fn)
			}
		}
		for _, t := range s.From {
			if t.Sub != nil {
				WalkExprs(t.Sub, fn)
			}
		}
		WalkExpr(s.Where, fn)
		for _, g := range s.GroupBy {
			WalkExpr(g, fn)
		}
		WalkExpr(s.Having, fn)
		for _, o := range s.OrderBy {
			WalkExpr(o.Expr, fn)
		}
		WalkExpr(s.Limit, fn)
		WalkExpr(s.Offset, fn)
		for _, u := range s.Setop {
			WalkExprs(u, fn)
		}
		for _, c := range s.With {
			if c.Select != nil {
				WalkExprs(c.Select, fn)
			}
		}
	case *InsertStatement:
		for _, row := range s.Rows {
			for _, e := range row {
				WalkExpr(e, fn)
			}
		}
		if s.Select != nil {
			WalkExprs(s.Select, fn)
		}
	case *UpdateStatement:
		for _, a := range s.Set {
			WalkExpr(a.Value, fn)
		}
		WalkExpr(s.Where, fn)
	case *DeleteStatement:
		WalkExpr(s.Where, fn)
	case *CreateTableStatement:
		for _, c := range s.Columns {
			WalkExpr(c.Check, fn)
			WalkExpr(c.Default, fn)
		}
		for _, tc := range s.Constraints {
			WalkExpr(tc.Check, fn)
		}
		if s.AsSelect != nil {
			WalkExprs(s.AsSelect, fn)
		}
	case *AlterTableStatement:
		if s.Column != nil {
			WalkExpr(s.Column.Check, fn)
			WalkExpr(s.Column.Default, fn)
		}
		if s.Constraint != nil {
			WalkExpr(s.Constraint.Check, fn)
		}
	}
}

// ColumnRefs returns every column reference in the expression tree.
func ColumnRefs(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			refs = append(refs, c)
		}
		return true
	})
	return refs
}
