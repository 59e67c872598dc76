package parser

import (
	"strings"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
)

// parseExpr parses an expression with standard SQL operator
// precedence: OR < AND < NOT < comparison < additive/concat <
// multiplicative < unary < primary. Unknown constructs degrade to Raw
// nodes rather than failing.
//
// A number or string literal followed by `,` or `)` — every cell of a
// VALUES row, most call arguments — is its own whole expression, so
// it skips the nine-level precedence climb; each level would return
// the literal unchanged.
func (p *parser) parseExpr() sqlast.Expr {
	if t := p.cur(); t.Kind == sqltoken.TokenNumber || t.Kind == sqltoken.TokenString {
		if next := p.peek(); punctIs(next, ',') || punctIs(next, ')') {
			return p.parsePrimary()
		}
	}
	return p.parseOr()
}

func (p *parser) parseOr() sqlast.Expr {
	left := p.parseAnd()
	for p.cur().Is("OR") {
		p.advance()
		right := p.parseAnd()
		left = &sqlast.BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left
}

func (p *parser) parseAnd() sqlast.Expr {
	left := p.parseNot()
	for p.cur().Is("AND") {
		p.advance()
		right := p.parseNot()
		left = &sqlast.BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left
}

func (p *parser) parseNot() sqlast.Expr {
	if p.cur().Is("NOT") && !p.peek().Is("NULL") {
		p.advance()
		return &sqlast.UnaryExpr{Op: "NOT", X: p.parseNot()}
	}
	return p.parseComparison()
}

// comparison operators that bind a left and right additive expression.
var compOps = map[string]bool{
	"=": true, "==": true, "<": true, ">": true, "<=": true, ">=": true,
	"<>": true, "!=": true, "<=>": true,
}

func (p *parser) parseComparison() sqlast.Expr {
	left := p.parseAdditive()
	for {
		t := p.cur()
		switch {
		case t.Kind == sqltoken.TokenOperator && compOps[t.Text]:
			p.advance()
			right := p.parseAdditive()
			left = &sqlast.BinaryExpr{Op: t.Text, Left: left, Right: right}
		case t.Is("LIKE") || t.Is("ILIKE") || t.Is("REGEXP") || t.Is("RLIKE") || t.Is("GLOB") || t.Is("MATCH"):
			op := t.Upper()
			p.advance()
			right := p.parseAdditive()
			if p.accept("ESCAPE") {
				p.parseAdditive()
			}
			left = &sqlast.BinaryExpr{Op: op, Left: left, Right: right}
		case t.Is("SIMILAR"):
			p.advance()
			p.accept("TO")
			right := p.parseAdditive()
			left = &sqlast.BinaryExpr{Op: "SIMILAR TO", Left: left, Right: right}
		case t.Is("IS"):
			p.advance()
			not := p.accept("NOT")
			right := p.parseAdditive()
			left = &sqlast.BinaryExpr{Op: "IS", Not: not, Left: left, Right: right}
		case t.Is("IN"):
			p.advance()
			right := p.parseInList()
			left = &sqlast.BinaryExpr{Op: "IN", Left: left, Right: right}
		case t.Is("BETWEEN"):
			p.advance()
			lo := p.parseAdditive()
			p.accept("AND")
			hi := p.parseAdditive()
			left = &sqlast.BinaryExpr{Op: "BETWEEN", Left: left,
				Right: &sqlast.ExprList{Items: []sqlast.Expr{lo, hi}}}
		case t.Is("NOT"):
			// x NOT LIKE / NOT IN / NOT BETWEEN
			nxt := p.peek()
			if nxt.Is("LIKE") || nxt.Is("ILIKE") || nxt.Is("IN") || nxt.Is("BETWEEN") || nxt.Is("REGEXP") || nxt.Is("RLIKE") || nxt.Is("GLOB") {
				p.advance()
				op := p.advance().Upper()
				var right sqlast.Expr
				if op == "IN" {
					right = p.parseInList()
				} else if op == "BETWEEN" {
					lo := p.parseAdditive()
					p.accept("AND")
					hi := p.parseAdditive()
					right = &sqlast.ExprList{Items: []sqlast.Expr{lo, hi}}
				} else {
					right = p.parseAdditive()
				}
				left = &sqlast.BinaryExpr{Op: op, Not: true, Left: left, Right: right}
				continue
			}
			return left
		default:
			return left
		}
	}
}

func (p *parser) parseInList() sqlast.Expr {
	if !p.acceptPunct('(') {
		return p.parseAdditive()
	}
	if p.cur().Is("SELECT") || p.cur().Is("WITH") {
		sub := &sqlast.SubQuery{Select: p.parseSelect()}
		p.skipToCloseParen()
		return sub
	}
	list := &sqlast.ExprList{}
	for !p.isPunct(')') && !p.eof() {
		list.Items = append(list.Items, p.parseExpr())
		if !p.acceptPunct(',') {
			break
		}
	}
	p.skipToCloseParen()
	return list
}

func (p *parser) parseAdditive() sqlast.Expr {
	left := p.parseMultiplicative()
	for {
		t := p.cur()
		if t.IsOp("+") || t.IsOp("-") || t.IsOp("||") || t.IsOp("&") || t.IsOp("|") || t.IsOp("<<") || t.IsOp(">>") {
			p.advance()
			right := p.parseMultiplicative()
			left = &sqlast.BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left
	}
}

func (p *parser) parseMultiplicative() sqlast.Expr {
	left := p.parseUnary()
	for {
		t := p.cur()
		if t.IsOp("*") || t.IsOp("/") || t.IsOp("%") {
			p.advance()
			right := p.parseUnary()
			left = &sqlast.BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left
	}
}

func (p *parser) parseUnary() sqlast.Expr {
	t := p.cur()
	if t.IsOp("-") || t.IsOp("+") || t.IsOp("~") {
		p.advance()
		return &sqlast.UnaryExpr{Op: t.Text, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

// parsePostfix handles ::type casts after a primary.
func (p *parser) parsePostfix() sqlast.Expr {
	e := p.parsePrimary()
	for p.cur().IsOp("::") {
		p.advance()
		p.identValue() // cast target type; the expression keeps its node
		if p.isPunct('(') {
			p.skipParens()
		}
	}
	return e
}

func (p *parser) parsePrimary() sqlast.Expr {
	t := p.cur()
	switch {
	case t.Kind == sqltoken.TokenNumber:
		p.advance()
		return p.literal("number", t.Text)
	case t.Kind == sqltoken.TokenString:
		p.advance()
		return p.literal("string", stripString(t.Text))
	case t.Kind == sqltoken.TokenPlaceholder:
		p.advance()
		return &sqlast.Placeholder{Text: t.Text}
	case t.Is("NULL"):
		p.advance()
		return &sqlast.Literal{LitKind: "null", Value: "NULL"}
	case t.Is("TRUE") || t.Is("FALSE"):
		p.advance()
		return &sqlast.Literal{LitKind: "bool", Value: t.Upper()}
	case t.Is("CASE"):
		return p.parseCase()
	case t.Is("CAST"):
		p.advance()
		if p.acceptPunct('(') {
			inner := p.parseExpr()
			p.accept("AS")
			name := p.identValue()
			if p.isPunct('(') {
				p.skipParens()
			}
			p.skipToCloseParen()
			return &sqlast.FuncCall{Name: "CAST", Args: []sqlast.Expr{inner, &sqlast.Literal{LitKind: "string", Value: name}}}
		}
		return p.rawRest()
	case t.Is("EXISTS"):
		p.advance()
		if p.acceptPunct('(') {
			if p.cur().Is("SELECT") || p.cur().Is("WITH") {
				sub := &sqlast.SubQuery{Select: p.parseSelect()}
				p.skipToCloseParen()
				return &sqlast.FuncCall{Name: "EXISTS", Args: []sqlast.Expr{sub}}
			}
			p.skipToCloseParen()
		}
		return &sqlast.FuncCall{Name: "EXISTS"}
	case t.Is("INTERVAL"):
		p.advance()
		arg := p.parsePrimary()
		if isIdentLike(p.cur()) { // unit word: DAY, MONTH, ...
			p.advance()
		}
		return &sqlast.FuncCall{Name: "INTERVAL", Args: []sqlast.Expr{arg}}
	case punctIs(t, '('):
		p.advance()
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			sub := &sqlast.SubQuery{Select: p.parseSelect()}
			p.skipToCloseParen()
			return sub
		}
		first := p.parseExpr()
		if p.isPunct(',') {
			list := &sqlast.ExprList{Items: []sqlast.Expr{first}}
			for p.acceptPunct(',') {
				list.Items = append(list.Items, p.parseExpr())
			}
			p.skipToCloseParen()
			return list
		}
		p.skipToCloseParen()
		return first
	case t.IsOp("*"):
		p.advance()
		return &sqlast.ColumnRef{Column: "*"}
	case isIdentLike(t) || t.Kind == sqltoken.TokenKeyword:
		// Function call?
		if punctIs(p.peek(), '(') {
			return p.parseFuncCall()
		}
		return p.parseColumnRef()
	default:
		// Unknown token: wrap it as raw and move on so parsing never
		// stalls.
		p.advance()
		return &sqlast.Raw{Tokens: []sqltoken.Token{t}}
	}
}

// literal returns a number or string literal node, taken from the
// VALUES list's block while the block lasts.
func (p *parser) literal(kind, value string) *sqlast.Literal {
	if len(p.lits) == cap(p.lits) {
		return &sqlast.Literal{LitKind: kind, Value: value}
	}
	p.lits = append(p.lits, sqlast.Literal{LitKind: kind, Value: value})
	return &p.lits[len(p.lits)-1]
}

func (p *parser) parseFuncCall() sqlast.Expr {
	name := sqltoken.CanonUpper(p.identValue())
	fc := &sqlast.FuncCall{Name: name}
	p.acceptPunct('(')
	if p.accept("DISTINCT") {
		fc.Distinct = true
	}
	for !p.isPunct(')') && !p.eof() {
		if p.cur().IsOp("*") {
			p.advance()
			fc.Star = true
		} else {
			fc.Args = append(fc.Args, p.parseExpr())
		}
		if !p.acceptPunct(',') {
			break
		}
	}
	p.skipToCloseParen()
	return fc
}

// parseColumnRef parses ident(.ident)* into a ColumnRef; a trailing
// ".*" yields a wildcard column.
func (p *parser) parseColumnRef() *sqlast.ColumnRef {
	first := p.identValue()
	ref := &sqlast.ColumnRef{Column: first}
	for p.isPunct('.') {
		if p.at(1).IsOp("*") {
			p.advance()
			p.advance()
			ref.Table = ref.Column
			ref.Column = "*"
			return ref
		}
		if !isIdentLike(p.at(1)) && p.at(1).Kind != sqltoken.TokenKeyword {
			return ref
		}
		p.advance()
		next := p.identValue()
		if ref.Table != "" {
			ref.Table += "." + ref.Column
		} else {
			ref.Table = ref.Column
		}
		ref.Column = next
	}
	return ref
}

func stripString(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		inner := s[1 : len(s)-1]
		if strings.IndexByte(inner, '\'') < 0 {
			return inner
		}
		return strings.ReplaceAll(inner, "''", "'")
	}
	if len(s) >= 1 && s[0] == '\'' {
		return s[1:]
	}
	return s
}

// ParseExpr parses a standalone expression; exported for tests and for
// rule code that needs to build predicates from text fragments.
func ParseExpr(sql string) sqlast.Expr {
	toks := sqltoken.LexSignificant(sql)
	p := parser{toks: toks, text: sql}
	return p.parseExpr()
}

// parseCase parses CASE [expr] WHEN ... THEN ... [ELSE ...] END.
func (p *parser) parseCase() sqlast.Expr {
	p.accept("CASE")
	c := &sqlast.CaseExpr{}
	// Optional operand form: CASE x WHEN 1 THEN ...
	if !p.cur().Is("WHEN") && !p.cur().Is("END") && !p.eof() {
		p.parseExpr() // operand; detection does not distinguish forms
	}
	for p.accept("WHEN") {
		c.Whens = append(c.Whens, p.parseExpr())
		if p.accept("THEN") {
			c.Thens = append(c.Thens, p.parseExpr())
		}
	}
	if p.accept("ELSE") {
		c.Else = p.parseExpr()
	}
	p.accept("END")
	return c
}

// parseExprListUntilKeyword parses a comma-separated expression list,
// as used by GROUP BY.
func (p *parser) parseExprListUntilKeyword() []sqlast.Expr {
	var out []sqlast.Expr
	for {
		out = append(out, p.parseExpr())
		if !p.acceptPunct(',') {
			return out
		}
	}
}
