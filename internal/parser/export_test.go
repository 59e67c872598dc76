package parser

import (
	"reflect"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
)

// FastPathMismatch parses the expression at every number and string
// literal of a statement twice, through parseExpr's literal fast path
// and through the full precedence climb, and returns the first token
// position where the two build different nodes or consume different
// tokens, or -1 if they always agree.
func FastPathMismatch(text string) (pos int, fast, climb sqlast.Expr) {
	toks := sqltoken.LexSignificant(text)
	for i, t := range toks {
		if t.Kind != sqltoken.TokenNumber && t.Kind != sqltoken.TokenString {
			continue
		}
		pf := parser{toks: toks, pos: i, text: text}
		pc := pf
		fast, climb = pf.parseExpr(), pc.parseOr()
		if pf.pos != pc.pos || !reflect.DeepEqual(fast, climb) {
			return i, fast, climb
		}
	}
	return -1, nil, nil
}
