package sqltoken

import (
	"iter"
	"strings"
)

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

// LexSignificant tokenizes input and drops whitespace and comment
// tokens, which most analyses do not care about. The trailing EOF
// token is retained. Insignificant tokens are skipped as they stream
// off the lexer — no intermediate full-token slice is built.
func LexSignificant(input string) []Token {
	l := lexer{src: input, line: 1}
	toks := make([]Token, 0, len(input)/6+4)
	for {
		t := l.next()
		if t.Kind == TokenWhitespace || t.Kind == TokenComment {
			continue
		}
		toks = append(toks, t)
		if t.Kind == TokenEOF {
			return toks
		}
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) next() Token {
	if l.pos >= len(l.src) {
		return Token{Kind: TokenEOF, Pos: l.pos, Line: l.line}
	}
	start, startLine := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		return l.tok(TokenWhitespace, start, startLine)
	case c == '-' && l.peekAt(1) == '-':
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return l.tok(TokenComment, start, startLine)
	case c == '#':
		// MySQL line comment.
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return l.tok(TokenComment, start, startLine)
	case c == '/' && l.peekAt(1) == '*':
		l.pos += 2
		for l.pos < len(l.src) {
			if l.src[l.pos] == '*' && l.peekAt(1) == '/' {
				l.pos += 2
				break
			}
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		return l.tok(TokenComment, start, startLine)
	case c == '\'':
		l.scanQuoted('\'')
		return l.tok(TokenString, start, startLine)
	case c == '"':
		l.scanQuoted('"')
		return l.tok(TokenQuotedIdent, start, startLine)
	case c == '`':
		l.scanQuoted('`')
		return l.tok(TokenQuotedIdent, start, startLine)
	case c == '[' && looksLikeBracketIdent(l.src[l.pos:]):
		for l.pos < len(l.src) && l.src[l.pos] != ']' {
			l.pos++
		}
		if l.pos < len(l.src) {
			l.pos++ // consume ']'
		}
		return l.tok(TokenQuotedIdent, start, startLine)
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		l.scanNumber()
		return l.tok(TokenNumber, start, startLine)
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		kind := TokenIdent
		if isKeywordFold(word) {
			kind = TokenKeyword
		}
		return l.tok(kind, start, startLine)
	case c == '?':
		l.pos++
		return l.tok(TokenPlaceholder, start, startLine)
	case c == '$' && isDigit(l.peekAt(1)):
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return l.tok(TokenPlaceholder, start, startLine)
	case c == ':' && isIdentStart(l.peekAt(1)):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return l.tok(TokenPlaceholder, start, startLine)
	case c == '%' && l.peekAt(1) == 's':
		// Python-style interpolation placeholder, common in embedded SQL.
		l.pos += 2
		return l.tok(TokenPlaceholder, start, startLine)
	case c == '(' || c == ')' || c == ',' || c == ';' || c == '.' || c == '[' || c == ']' || c == '{' || c == '}':
		l.pos++
		return l.tok(TokenPunct, start, startLine)
	default:
		if op := l.scanOperator(); op {
			return l.tok(TokenOperator, start, startLine)
		}
		l.pos++
		return l.tok(TokenOther, start, startLine)
	}
}

func (l *lexer) tok(k Kind, start, line int) Token {
	return Token{Kind: k, Text: l.src[start:l.pos], Pos: start, Line: line}
}

// scanQuoted consumes a quoted region starting at the current position
// (which must hold the opening quote). Doubled quotes escape the quote
// character; backslash escapes are honored inside single quotes since
// MySQL permits them. An unterminated quote consumes to end of input
// rather than failing — the lexer is non-validating.
func (l *lexer) scanQuoted(q byte) {
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && q == '\'' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == q {
			if l.peekAt(1) == q { // doubled quote escape
				l.pos += 2
				continue
			}
			l.pos++
			return
		}
		if c == '\n' {
			l.line++
		}
		l.pos++
	}
}

func (l *lexer) scanNumber() {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.peek() == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		save := l.pos
		l.pos++
		if c := l.peek(); c == '+' || c == '-' {
			l.pos++
		}
		if !isDigit(l.peek()) {
			l.pos = save // not an exponent after all
			return
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
}

// multi-byte operators, longest first.
var operators = []string{
	"<=>", "::", "||", "<<", ">>", "<=", ">=", "<>", "!=", "==", "->>",
	"->", "=", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
}

func (l *lexer) scanOperator() bool {
	rest := l.src[l.pos:]
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return true
		}
	}
	return false
}

// looksLikeBracketIdent reports whether a '[' opens a SQL Server style
// bracketed identifier (as opposed to, say, a regex character class
// inside a LIKE pattern, which would be inside a string anyway). The
// byte after '[' must not be whitespace: a newline before the ']'
// already rules the bracket out, so without this test "[ ]" and
// "[\n]" would lex differently and a whitespace-only rewrite could
// move the fingerprint.
func looksLikeBracketIdent(s string) bool {
	if len(s) < 2 || isSpace(s[1]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case ']':
			return i > 1
		case '\n', '(', ')', ',', '\'':
			return false
		}
		if i > 128 {
			return false
		}
	}
	return false
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// trimLexSpace trims exactly the lexer's whitespace class from both
// ends of s. strings.TrimSpace would additionally trim bytes the lexer
// treats as significant (form feed, vertical tab, unicode spaces), and
// the statement splitter and fingerprinter must agree with the token
// stream on which bytes a statement contains.
func trimLexSpace(s string) string {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for j > i && isSpace(s[j-1]) {
		j--
	}
	return s[i:j]
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '$'
}

// Statements iterates over the statements of a script in a single
// lexing pass. Each step yields a statement's text exactly as
// SplitStatements returns it, together with its significant tokens
// exactly as LexSignificant(text) returns them: positions and line
// numbers relative to the text, EOF-terminated. Splitting and then
// lexing each statement would lex every byte twice and allocate a
// token array per statement; here the whole script is lexed once and
// the tokens go into one buffer that every step reuses, so a consumer
// must copy any token it keeps past the step.
//
// SplitStatements and LexSignificant remain the reference: the fuzz
// contract (assertSplitAgreement) holds this iterator to them.
func Statements(input string) iter.Seq2[string, []Token] {
	return func(yield func(string, []Token) bool) {
		l := lexer{src: input, line: 1}
		var (
			toks      []Token
			depth     int
			begin     = -1
			beginLine int
			// last is the statement's last non-whitespace token and
			// lastLine the lexer's line just after it: where lexing
			// the trimmed text alone would reach EOF.
			last     Token
			lastLine int
		)
		for {
			t := l.next()
			switch {
			case t.Kind == TokenEOF || (t.IsPunct(";") && depth == 0):
				if begin >= 0 {
					text := trimLexSpace(input[begin:t.Pos])
					end := begin + len(text)
					if last.Pos+len(last.Text) > end {
						// A token that runs to end of input (an
						// unterminated quote or block comment) swallowed
						// whitespace the trim dropped. Re-lex it against
						// the trimmed end, as lexing text alone would.
						sub := lexer{src: input[:end], pos: last.Pos, line: last.Line}
						clipped := sub.next()
						lastLine = sub.line
						if last.Kind != TokenComment {
							toks[len(toks)-1].Text = clipped.Text
						}
					}
					toks = append(toks, Token{Kind: TokenEOF, Pos: len(text), Line: lastLine - beginLine + 1})
					if !yield(text, toks) {
						return
					}
				}
				if t.Kind == TokenEOF {
					return
				}
				begin, toks = -1, toks[:0]
			case t.Kind == TokenWhitespace:
			case t.Kind == TokenComment:
				// Inside a statement a comment is part of its text
				// (it can hold newlines), but never a token of it.
				if begin >= 0 {
					last, lastLine = t, l.line
				}
			default:
				if begin < 0 {
					begin, beginLine = t.Pos, t.Line
				}
				if t.IsPunct("(") {
					depth++
				} else if t.IsPunct(")") && depth > 0 {
					depth--
				}
				last, lastLine = t, l.line
				t.Pos -= begin
				t.Line -= beginLine - 1
				toks = append(toks, t)
			}
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
