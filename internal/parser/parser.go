// Package parser implements sqlcheck's non-validating SQL parser.
//
// Like the sqlparse library used by the paper (§4.1), the parser never
// rejects input: statements it cannot model become OtherStatement
// nodes, which keep their text and verb, and expressions it cannot
// structure become Raw nodes holding a copy of their tokens; no node
// keeps the lexer's token slice. This keeps multi-dialect SQL flowing
// into the detection rules, which work on whatever structure is
// available.
//
// Scripts are parsed from sqltoken.Statements, the program's one
// statement splitter, which lexes the whole script once into one
// token buffer reused statement after statement; that reuse is safe
// only because no node keeps the token slice. Single statements
// (Parse) are lexed with sqltoken.LexSignificant. Both paths build
// identical ASTs: TestParseAllMatchesPerStatementParse holds ParseAll
// to Parse over each statement's text.
package parser

import (
	"iter"
	"strings"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
)

// Parse parses a single SQL statement.
func Parse(sql string) sqlast.Statement {
	return parseTokens(sql, sqltoken.LexSignificant(sql))
}

// parseTokens parses one statement from its text and its significant,
// EOF-terminated tokens.
func parseTokens(text string, toks []sqltoken.Token) sqlast.Statement {
	p := parser{toks: toks, text: text}
	return p.parseStatement()
}

// Statements parses sql one statement at a time, splitting it on
// top-level semicolons. The script is lexed in a single pass
// (sqltoken.Statements), so no statement gets a token array of its
// own; each statement is parsed only when the consumer asks for it.
func Statements(sql string) iter.Seq[sqlast.Statement] {
	return func(yield func(sqlast.Statement) bool) {
		for st, toks := range sqltoken.Statements(sql) {
			if !yield(parseTokens(st.Text, toks)) {
				return
			}
		}
	}
}

// ParseAll splits sql on top-level semicolons and parses each
// statement.
func ParseAll(sql string) []sqlast.Statement {
	var stmts []sqlast.Statement
	for stmt := range Statements(sql) {
		stmts = append(stmts, stmt)
	}
	return stmts
}

type parser struct {
	toks []sqltoken.Token // significant tokens, EOF-terminated
	pos  int
	text string
}

func (p *parser) cur() sqltoken.Token  { return p.toks[p.pos] }
func (p *parser) peek() sqltoken.Token { return p.at(1) }

func (p *parser) at(off int) sqltoken.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+off]
}

func (p *parser) eof() bool { return p.cur().Kind == sqltoken.TokenEOF }

func (p *parser) advance() sqltoken.Token {
	t := p.cur()
	if !p.eof() {
		p.pos++
	}
	return t
}

// accept consumes the current token if it is the given keyword/ident.
func (p *parser) accept(word string) bool {
	if p.cur().Is(word) {
		p.advance()
		return true
	}
	return false
}

// acceptPunct consumes the current token if it is the given punctuation.
func (p *parser) acceptPunct(s string) bool {
	if p.cur().IsPunct(s) {
		p.advance()
		return true
	}
	return false
}

// identValue consumes an identifier-ish token and returns its value.
// Keywords are accepted as identifiers (non-validating). Returns ""
// if the current token cannot be an identifier.
func (p *parser) identValue() string {
	t := p.cur()
	switch t.Kind {
	case sqltoken.TokenIdent, sqltoken.TokenKeyword, sqltoken.TokenQuotedIdent:
		p.advance()
		return t.Ident()
	}
	return ""
}

func (p *parser) base() sqlast.Base {
	return sqlast.Base{Text: p.text}
}

// rawRest wraps all remaining tokens in a Raw expression node. The run
// is copied: a subslice would keep the statement's whole token array
// alive for as long as the AST is cached.
func (p *parser) rawRest() *sqlast.Raw {
	run := p.toks[p.pos : len(p.toks)-1]
	r := &sqlast.Raw{Tokens: make([]sqltoken.Token, len(run))}
	copy(r.Tokens, run)
	p.pos = len(p.toks) - 1
	return r
}

// ---------------------------------------------------------------------------
// Statement dispatch
// ---------------------------------------------------------------------------

func (p *parser) parseStatement() sqlast.Statement {
	t := p.cur()
	switch {
	case t.Is("SELECT") || t.Is("WITH"):
		return p.parseSelect()
	case t.Is("INSERT") || t.Is("REPLACE"):
		return p.parseInsert()
	case t.Is("UPDATE"):
		return p.parseUpdate()
	case t.Is("DELETE"):
		return p.parseDelete()
	case t.Is("CREATE"):
		return p.parseCreate()
	case t.Is("ALTER"):
		return p.parseAlter()
	case t.Is("DROP"):
		return p.parseDrop()
	default:
		verb := t.Upper() // interned for keyword verbs
		return &sqlast.OtherStatement{Base: p.base(), Verb: verb}
	}
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *parser) parseSelect() *sqlast.SelectStatement {
	sel := &sqlast.SelectStatement{Base: p.base()}
	if p.accept("WITH") {
		sel.With = p.parseCTEs()
	}
	if !p.accept("SELECT") {
		// WITH ... INSERT etc — treat rest as opaque by leaving the
		// select empty; tokens remain in Base.
		return sel
	}
	p.parseSelectCore(sel)
	for p.accept("UNION") || p.accept("INTERSECT") || p.accept("EXCEPT") {
		p.accept("ALL")
		if p.cur().Is("SELECT") {
			u := &sqlast.SelectStatement{Base: p.base()}
			p.advance()
			p.parseSelectCore(u)
			sel.Setop = append(sel.Setop, u)
		}
	}
	return sel
}

func (p *parser) parseCTEs() []sqlast.CTE {
	var ctes []sqlast.CTE
	for {
		var c sqlast.CTE
		if p.accept("RECURSIVE") {
			c.Recursive = true
		}
		c.Name = p.identValue()
		if c.Name == "" {
			break
		}
		// Optional column list.
		if p.cur().IsPunct("(") && !p.at(1).Is("SELECT") {
			p.skipParens()
		}
		p.accept("AS")
		if p.acceptPunct("(") {
			if p.cur().Is("SELECT") || p.cur().Is("WITH") {
				c.Select = p.parseSelect()
			}
			p.skipToCloseParen()
		}
		ctes = append(ctes, c)
		if !p.acceptPunct(",") {
			break
		}
	}
	return ctes
}

// parseSelectCore parses everything after the SELECT keyword.
func (p *parser) parseSelectCore(sel *sqlast.SelectStatement) {
	if p.accept("DISTINCT") {
		sel.Distinct = true
	} else {
		p.accept("ALL")
	}
	sel.Items = p.parseSelectItems()
	if p.accept("FROM") {
		sel.From, sel.Joins = p.parseFrom()
	}
	if p.accept("WHERE") {
		sel.Where = p.parseExpr()
	}
	if p.cur().Is("GROUP") && p.peek().Is("BY") {
		p.advance()
		p.advance()
		sel.GroupBy = p.parseExprListUntilKeyword()
	}
	if p.accept("HAVING") {
		sel.Having = p.parseExpr()
	}
	if p.cur().Is("ORDER") && p.peek().Is("BY") {
		p.advance()
		p.advance()
		for {
			it := sqlast.OrderItem{Expr: p.parseExpr()}
			if p.accept("DESC") {
				it.Desc = true
			} else {
				p.accept("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, it)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		sel.Limit = p.parseExpr()
		if p.acceptPunct(",") { // MySQL LIMIT offset, count
			sel.Offset = sel.Limit
			sel.Limit = p.parseExpr()
		}
	}
	if p.accept("OFFSET") {
		sel.Offset = p.parseExpr()
	}
}

func (p *parser) parseSelectItems() []sqlast.SelectItem {
	var items []sqlast.SelectItem
	for {
		var it sqlast.SelectItem
		switch {
		case p.cur().IsOp("*"):
			p.advance()
			it.Star = true
		case isIdentLike(p.cur()) && p.peek().IsPunct(".") && p.at(2).IsOp("*"):
			it.Star = true
			it.StarTable = p.cur().Ident()
			p.advance()
			p.advance()
			p.advance()
		default:
			it.Expr = p.parseExpr()
			if p.accept("AS") {
				it.Alias = p.identValue()
			} else if isAliasToken(p.cur()) {
				it.Alias = p.identValue()
			}
		}
		items = append(items, it)
		if !p.acceptPunct(",") {
			return items
		}
	}
}

// isAliasToken reports whether the token can serve as an implicit
// (AS-less) alias. Keywords that begin the next clause must not.
func isAliasToken(t sqltoken.Token) bool {
	if t.Kind == sqltoken.TokenQuotedIdent {
		return true
	}
	if t.Kind != sqltoken.TokenIdent {
		return false
	}
	return true
}

func isIdentLike(t sqltoken.Token) bool {
	return t.Kind == sqltoken.TokenIdent || t.Kind == sqltoken.TokenQuotedIdent
}

func (p *parser) parseFrom() ([]sqlast.TableRef, []sqlast.Join) {
	var (
		from  []sqlast.TableRef
		joins []sqlast.Join
	)
	from = append(from, p.parseTableRef())
	for {
		switch {
		case p.acceptPunct(","):
			from = append(from, p.parseTableRef())
		case p.cur().Is("JOIN") || p.cur().Is("INNER") || p.cur().Is("LEFT") ||
			p.cur().Is("RIGHT") || p.cur().Is("FULL") || p.cur().Is("CROSS"):
			joins = append(joins, p.parseJoin())
		default:
			return from, joins
		}
	}
}

func (p *parser) parseJoin() sqlast.Join {
	var j sqlast.Join
	switch {
	case p.accept("INNER"):
		j.Kind = "INNER"
	case p.accept("LEFT"):
		p.accept("OUTER")
		j.Kind = "LEFT"
	case p.accept("RIGHT"):
		p.accept("OUTER")
		j.Kind = "RIGHT"
	case p.accept("FULL"):
		p.accept("OUTER")
		j.Kind = "FULL"
	case p.accept("CROSS"):
		j.Kind = "CROSS"
	default:
		j.Kind = "INNER"
	}
	p.accept("JOIN")
	j.Table = p.parseTableRef()
	if p.accept("ON") {
		j.On = p.parseExpr()
	} else if p.accept("USING") {
		if p.acceptPunct("(") {
			for {
				c := p.identValue()
				if c == "" {
					break
				}
				j.Using = append(j.Using, c)
				if !p.acceptPunct(",") {
					break
				}
			}
			p.acceptPunct(")")
		}
	}
	return j
}

func (p *parser) parseTableRef() sqlast.TableRef {
	var t sqlast.TableRef
	if p.acceptPunct("(") {
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			t.Sub = p.parseSelect()
		}
		p.skipToCloseParen()
	} else {
		t.Name = p.qualifiedName()
	}
	if p.accept("AS") {
		t.Alias = p.identValue()
	} else if isIdentLike(p.cur()) && !nextClauseKeyword(p.cur()) {
		t.Alias = p.identValue()
	}
	return t
}

// clauseKeywords are identifiers that actually begin the next clause
// and therefore must not be eaten as aliases.
var clauseKeywords = map[string]bool{
	"WHERE": true, "GROUP": true, "ORDER": true, "HAVING": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true,
	"ON": true, "UNION": true, "SET": true, "VALUES": true,
	"RETURNING": true, "USING": true, "INTERSECT": true,
	"EXCEPT": true, "AND": true, "OR": true,
}

// nextClauseKeyword reports whether the token begins the next clause.
// Probed once per candidate alias, so the lookup folds in place
// instead of upper-casing the token text.
func nextClauseKeyword(t sqltoken.Token) bool {
	return sqltoken.LookupFold(clauseKeywords, t.Text)
}

// qualifiedName parses ident(.ident)* and returns the dotted form.
func (p *parser) qualifiedName() string {
	name := p.identValue()
	for p.cur().IsPunct(".") && isIdentLike(p.peek()) {
		p.advance()
		name += "." + p.identValue()
	}
	return name
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE
// ---------------------------------------------------------------------------

func (p *parser) parseInsert() sqlast.Statement {
	ins := &sqlast.InsertStatement{Base: p.base()}
	if p.accept("REPLACE") {
		ins.OrReplace = true
	} else {
		p.accept("INSERT")
		if p.accept("OR") {
			if p.accept("REPLACE") {
				ins.OrReplace = true
			} else {
				p.advance() // IGNORE/ABORT/...
			}
		}
		p.accept("IGNORE")
	}
	p.accept("INTO")
	ins.Table = p.qualifiedName()
	if p.cur().IsPunct("(") && !p.at(1).Is("SELECT") {
		p.advance()
		for {
			c := p.identValue()
			if c == "" {
				break
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptPunct(",") {
				break
			}
		}
		p.acceptPunct(")")
	}
	switch {
	case p.accept("VALUES") || p.accept("VALUE"):
		width := 0
		for {
			if !p.acceptPunct("(") {
				break
			}
			// Rows of one INSERT almost always share a width, so each
			// row after the first is allocated at the previous row's.
			// A row with no items stays nil.
			var row []sqlast.Expr
			if width > 0 && !p.cur().IsPunct(")") && !p.eof() {
				row = make([]sqlast.Expr, 0, width)
			}
			for !p.cur().IsPunct(")") && !p.eof() {
				row = append(row, p.parseExpr())
				if !p.acceptPunct(",") {
					break
				}
			}
			p.acceptPunct(")")
			width = len(row)
			ins.Rows = append(ins.Rows, row)
			if !p.acceptPunct(",") {
				break
			}
		}
	case p.cur().Is("SELECT") || p.cur().Is("WITH"):
		ins.Select = p.parseSelect()
	case p.acceptPunct("("):
		if p.cur().Is("SELECT") {
			ins.Select = p.parseSelect()
		}
		p.skipToCloseParen()
	}
	return ins
}

func (p *parser) parseUpdate() sqlast.Statement {
	up := &sqlast.UpdateStatement{Base: p.base()}
	p.accept("UPDATE")
	p.accept("ONLY")
	up.Table = p.qualifiedName()
	if p.accept("AS") {
		up.Alias = p.identValue()
	} else if isIdentLike(p.cur()) && !p.cur().Is("SET") {
		up.Alias = p.identValue()
	}
	if p.accept("SET") {
		for {
			var a sqlast.Assignment
			a.Column = *p.parseColumnRef()
			if !p.cur().IsOp("=") {
				break
			}
			p.advance()
			a.Value = p.parseExpr()
			up.Set = append(up.Set, a)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.accept("WHERE") {
		up.Where = p.parseExpr()
	}
	return up
}

func (p *parser) parseDelete() sqlast.Statement {
	del := &sqlast.DeleteStatement{Base: p.base()}
	p.accept("DELETE")
	p.accept("FROM")
	del.Table = p.qualifiedName()
	if p.accept("WHERE") {
		del.Where = p.parseExpr()
	}
	return del
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (p *parser) parseCreate() sqlast.Statement {
	p.accept("CREATE")
	unique := p.accept("UNIQUE")
	temp := p.accept("TEMPORARY") || p.accept("TEMP")
	switch {
	case p.accept("TABLE"):
		return p.parseCreateTable(temp)
	case p.accept("INDEX"):
		return p.parseCreateIndex(unique)
	case p.accept("VIEW"):
		o := &sqlast.OtherStatement{Base: p.base(), Verb: "CREATE VIEW"}
		return o
	default:
		return &sqlast.OtherStatement{Base: p.base(), Verb: "CREATE"}
	}
}

func (p *parser) parseCreateTable(temp bool) sqlast.Statement {
	ct := &sqlast.CreateTableStatement{Base: p.base(), Temporary: temp}
	if p.cur().Is("IF") {
		p.advance()
		p.accept("NOT")
		p.accept("EXISTS")
		ct.IfNotExists = true
	}
	ct.Name = p.qualifiedName()
	if p.accept("AS") {
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			ct.AsSelect = p.parseSelect()
		}
		return ct
	}
	if !p.acceptPunct("(") {
		return ct
	}
	for !p.cur().IsPunct(")") && !p.eof() {
		if p.parseTableElement(ct) {
			if !p.acceptPunct(",") {
				break
			}
		} else {
			// Skip an element we could not parse, up to comma/close.
			p.skipElement()
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	p.acceptPunct(")")
	return ct
}

// parseTableElement parses one column definition or table constraint.
func (p *parser) parseTableElement(ct *sqlast.CreateTableStatement) bool {
	t := p.cur()
	if t.Is("PRIMARY") || t.Is("FOREIGN") || t.Is("UNIQUE") ||
		t.Is("CHECK") || t.Is("CONSTRAINT") {
		tc := p.parseTableConstraint()
		if tc != nil {
			ct.Constraints = append(ct.Constraints, *tc)
			return true
		}
		return false
	}
	if !isIdentLike(t) && t.Kind != sqltoken.TokenKeyword {
		return false
	}
	col := sqlast.ColumnDef{Name: p.identValue()}
	if col.Name == "" {
		return false
	}
	// Type name: one or more words (e.g. DOUBLE PRECISION, TIMESTAMP
	// WITH TIME ZONE handled below).
	typeName := p.identValue()
	if typeName == "" {
		// Column with no type (SQLite allows it).
		ct.Columns = append(ct.Columns, col)
		return true
	}
	col.Type = sqltoken.CanonUpper(typeName)
	switch col.Type {
	case "DOUBLE":
		if p.accept("PRECISION") {
			col.Type = "DOUBLE PRECISION"
		}
	case "TIMESTAMP", "TIME", "DATETIME":
		if p.cur().Is("WITH") || p.cur().Is("WITHOUT") {
			with := p.accept("WITH")
			if !with {
				p.accept("WITHOUT")
			}
			p.accept("TIME")
			p.accept("ZONE")
			if with {
				col.Type += " WITH TIME ZONE"
			} else {
				col.Type += " WITHOUT TIME ZONE"
			}
		}
	case "CHARACTER":
		if p.accept("VARYING") {
			col.Type = "VARCHAR"
		}
	case "TIMESTAMPTZ":
		col.Type = "TIMESTAMP WITH TIME ZONE"
	case "SERIAL", "BIGSERIAL":
		col.AutoIncrement = true
	}
	if p.acceptPunct("(") {
		for !p.cur().IsPunct(")") && !p.eof() {
			col.TypeParams = append(col.TypeParams, p.typeParam())
			if !p.acceptPunct(",") {
				break
			}
		}
		p.acceptPunct(")")
	}
	// Column constraints.
	for {
		switch {
		case p.cur().Is("NOT") && p.peek().Is("NULL"):
			p.advance()
			p.advance()
			col.NotNull = true
		case p.accept("NULL"):
			// explicit NULL — nothing to record
		case p.cur().Is("PRIMARY") && p.peek().Is("KEY"):
			p.advance()
			p.advance()
			col.PrimaryKey = true
			p.accept("ASC")
			p.accept("DESC")
		case p.accept("UNIQUE"):
			col.Unique = true
		case p.accept("AUTO_INCREMENT") || p.accept("AUTOINCREMENT"):
			col.AutoIncrement = true
		case p.accept("DEFAULT"):
			col.Default = p.parsePrimary()
		case p.accept("REFERENCES"):
			col.References = p.parseFKRef()
		case p.accept("CHECK"):
			if p.acceptPunct("(") {
				col.Check = p.parseExpr()
				p.skipToCloseParen()
			}
		case p.accept("COLLATE"):
			p.identValue()
		case p.accept("CONSTRAINT"):
			p.identValue() // named column constraint; keep parsing
		case p.accept("COMMENT"):
			p.advance() // comment string
		case p.accept("ON"):
			// ON UPDATE CURRENT_TIMESTAMP (MySQL)
			p.advance()
			p.advance()
		default:
			ct.Columns = append(ct.Columns, col)
			return true
		}
	}
}

func (p *parser) typeParam() string {
	t := p.advance()
	if t.Kind == sqltoken.TokenString {
		// strip quotes for ENUM('a','b') values
		s := t.Text
		if len(s) >= 2 {
			return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
		}
	}
	return t.Text
}

func (p *parser) parseTableConstraint() *sqlast.TableConstraint {
	tc := &sqlast.TableConstraint{}
	if p.accept("CONSTRAINT") {
		tc.Name = p.identValue()
	}
	switch {
	case p.cur().Is("PRIMARY") && p.peek().Is("KEY"):
		p.advance()
		p.advance()
		tc.CKind = "PRIMARY KEY"
		tc.Columns = p.parenColumnList()
	case p.cur().Is("FOREIGN") && p.peek().Is("KEY"):
		p.advance()
		p.advance()
		tc.CKind = "FOREIGN KEY"
		tc.Columns = p.parenColumnList()
		if p.accept("REFERENCES") {
			tc.Ref = p.parseFKRef()
		}
	case p.accept("UNIQUE"):
		p.accept("KEY")
		p.accept("INDEX")
		tc.CKind = "UNIQUE"
		tc.Columns = p.parenColumnList()
	case p.accept("CHECK"):
		tc.CKind = "CHECK"
		if p.acceptPunct("(") {
			tc.Check = p.parseExpr()
			p.skipToCloseParen()
		}
	default:
		return nil
	}
	return tc
}

func (p *parser) parenColumnList() []string {
	var cols []string
	if !p.acceptPunct("(") {
		return cols
	}
	for !p.cur().IsPunct(")") && !p.eof() {
		c := p.identValue()
		if c == "" {
			p.advance()
			continue
		}
		cols = append(cols, c)
		p.accept("ASC")
		p.accept("DESC")
		if !p.acceptPunct(",") {
			break
		}
	}
	p.acceptPunct(")")
	return cols
}

func (p *parser) parseFKRef() *sqlast.ForeignKeyRef {
	ref := &sqlast.ForeignKeyRef{Table: p.qualifiedName()}
	if p.cur().IsPunct("(") {
		ref.Columns = p.parenColumnList()
	}
	for p.cur().Is("ON") {
		p.advance()
		verb := p.advance().Upper() // DELETE or UPDATE
		action := p.advance().Upper()
		if action == "SET" {
			action += " " + p.advance().Upper()
		} else if action == "NO" {
			action += " " + p.advance().Upper()
		}
		if verb == "DELETE" {
			ref.OnDelete = action
		} else if verb == "UPDATE" {
			ref.OnUpdate = action
		}
	}
	return ref
}

func (p *parser) parseCreateIndex(unique bool) sqlast.Statement {
	ci := &sqlast.CreateIndexStatement{Base: p.base(), Unique: unique}
	if p.cur().Is("IF") {
		p.advance()
		p.accept("NOT")
		p.accept("EXISTS")
	}
	ci.Name = p.qualifiedName()
	if p.accept("ON") {
		ci.Table = p.qualifiedName()
	}
	ci.Columns = p.parenColumnList()
	return ci
}

func (p *parser) parseAlter() sqlast.Statement {
	at := &sqlast.AlterTableStatement{Base: p.base()}
	p.accept("ALTER")
	if !p.accept("TABLE") {
		return &sqlast.OtherStatement{Base: at.Base, Verb: "ALTER"}
	}
	p.accept("ONLY")
	if p.cur().Is("IF") {
		p.advance()
		p.accept("EXISTS")
	}
	at.Table = p.qualifiedName()
	switch {
	case p.accept("ADD"):
		switch {
		case p.cur().Is("CONSTRAINT") || p.cur().Is("PRIMARY") ||
			p.cur().Is("FOREIGN") || p.cur().Is("UNIQUE") || p.cur().Is("CHECK"):
			at.Action = sqlast.AlterAddConstraint
			at.Constraint = p.parseTableConstraint()
		default:
			p.accept("COLUMN")
			at.Action = sqlast.AlterAddColumn
			tmp := &sqlast.CreateTableStatement{}
			if p.parseTableElement(tmp) && len(tmp.Columns) == 1 {
				at.Column = &tmp.Columns[0]
			}
		}
	case p.accept("DROP"):
		switch {
		case p.accept("CONSTRAINT"):
			at.Action = sqlast.AlterDropConstraint
			if p.cur().Is("IF") {
				p.advance()
				p.accept("EXISTS")
				at.IfExists = true
			}
			at.DropName = p.identValue()
		case p.accept("PRIMARY"):
			p.accept("KEY")
			at.Action = sqlast.AlterDropConstraint
			at.DropName = "PRIMARY KEY"
		default:
			p.accept("COLUMN")
			at.Action = sqlast.AlterDropColumn
			at.DropColumn = p.identValue()
		}
	case p.accept("RENAME"):
		p.accept("TO")
		at.Action = sqlast.AlterRename
		at.NewName = p.qualifiedName()
	case p.accept("ALTER") || p.accept("MODIFY"):
		p.accept("COLUMN")
		at.Action = sqlast.AlterAlterColumn
		tmp := &sqlast.CreateTableStatement{}
		if p.parseTableElement(tmp) && len(tmp.Columns) == 1 {
			at.Column = &tmp.Columns[0]
		}
	default:
		at.Action = sqlast.AlterOther
	}
	return at
}

func (p *parser) parseDrop() sqlast.Statement {
	p.accept("DROP")
	d := &sqlast.DropStatement{Base: p.base()}
	switch {
	case p.accept("TABLE"):
		d.DropKind = sqlast.KindDropTable
	case p.accept("INDEX"):
		d.DropKind = sqlast.KindDropIndex
	default:
		return &sqlast.OtherStatement{Base: d.Base, Verb: "DROP"}
	}
	if p.cur().Is("IF") {
		p.advance()
		p.accept("EXISTS")
		d.IfExists = true
	}
	d.Name = p.qualifiedName()
	return d
}

// ---------------------------------------------------------------------------
// Skipping helpers
// ---------------------------------------------------------------------------

// skipParens skips a balanced parenthesized group starting at "(".
func (p *parser) skipParens() {
	if !p.acceptPunct("(") {
		return
	}
	depth := 1
	for depth > 0 && !p.eof() {
		t := p.advance()
		if t.IsPunct("(") {
			depth++
		} else if t.IsPunct(")") {
			depth--
		}
	}
}

// skipToCloseParen consumes tokens up to and including the ")" that
// closes the group we are currently inside.
func (p *parser) skipToCloseParen() {
	depth := 1
	for depth > 0 && !p.eof() {
		t := p.advance()
		if t.IsPunct("(") {
			depth++
		} else if t.IsPunct(")") {
			depth--
		}
	}
}

// skipElement advances to the comma or ")" ending a CREATE TABLE
// element, respecting nesting.
func (p *parser) skipElement() {
	depth := 0
	for !p.eof() {
		t := p.cur()
		if depth == 0 && (t.IsPunct(",") || t.IsPunct(")")) {
			return
		}
		if t.IsPunct("(") {
			depth++
		} else if t.IsPunct(")") {
			depth--
		}
		p.advance()
	}
}
