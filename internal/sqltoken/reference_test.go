package sqltoken

// The references the tests hold the production paths to. Lex keeps
// every token, whitespace and comments included, and SplitStatements
// splits a script with its own loop over the lexer, so a change to
// Statements' boundary rule shows up as a disagreement with it
// (assertSplitAgreement).

// Lex tokenizes the input SQL text. It never returns an error: input
// that cannot be classified becomes TokenOther tokens. The returned
// slice always ends with a TokenEOF token.
func Lex(input string) []Token {
	l := lexer{src: input, line: 1}
	toks := make([]Token, 0, len(input)/4+4)
	for {
		t := l.next()
		toks = append(toks, t)
		if t.Kind == TokenEOF {
			return toks
		}
	}
}

// SplitStatements splits SQL text into individual statements on
// top-level semicolons. Semicolons inside strings, comments, or
// parentheses do not split. Empty statements are dropped. The returned
// statements retain their original text (without the terminating
// semicolon).
func SplitStatements(input string) []string {
	l := lexer{src: input, line: 1}
	var (
		stmts []string
		depth int
		begin = -1
	)
	flush := func(end int) {
		if begin < 0 {
			return
		}
		s := trimLexSpace(input[begin:end])
		if s != "" {
			stmts = append(stmts, s)
		}
		begin = -1
	}
	// Tokens stream straight off the lexer; splitting never needs the
	// full token slice.
	for {
		t := l.next()
		switch {
		case t.Kind == TokenEOF:
			flush(t.Pos)
			return stmts
		case t.Kind == TokenWhitespace || t.Kind == TokenComment:
			// does not begin a statement
		case t.IsPunct(";") && depth == 0:
			flush(t.Pos)
		default:
			if begin < 0 {
				begin = t.Pos
			}
			if t.IsPunct("(") {
				depth++
			} else if t.IsPunct(")") && depth > 0 {
				depth--
			}
		}
	}
}
