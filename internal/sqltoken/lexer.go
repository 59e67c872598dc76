package sqltoken

import (
	"iter"
	"strings"
)

// LexSignificant tokenizes input and drops whitespace and comments,
// which most analyses do not care about. It never fails: input that
// cannot be classified becomes TokenOther tokens, and the returned
// slice always ends with a TokenEOF token.
func LexSignificant(input string) []Token {
	return AppendSignificant(make([]Token, 0, len(input)/6+4), input)
}

// AppendSignificant appends LexSignificant(input)'s tokens to toks
// and returns the extended slice, so a caller can lex into an array
// it reuses.
func AppendSignificant(toks []Token, input string) []Token {
	l := lexer{src: input, line: 1}
	for {
		kind, start, line := l.next()
		if kind == TokenComment {
			continue
		}
		toks = append(toks, Token{Kind: kind, Text: input[start:l.pos], Pos: start, Line: line})
		if kind == TokenEOF {
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

// firstKind dispatches next on a token's first byte for the bytes
// that begin most tokens and that no earlier case of scanOther's
// switch could claim: `(),;{}`, `'` and digits. Every other byte maps
// to TokenEOF, which here means "not dispatched".
var firstKind = func() (t [256]Kind) {
	for _, c := range "(),;{}" {
		t[c] = TokenPunct
	}
	t['\''] = TokenString
	for c := '0'; c <= '9'; c++ {
		t[c] = TokenNumber
	}
	return t
}()

// next scans the next significant token or comment, skipping the
// whitespace before it in place: no caller keeps whitespace tokens.
// It returns the token's kind, start and line; the token ends at
// l.pos. The common first bytes dispatch through firstKind; every
// other byte takes scanOther's switch, whose cases are tried in order.
func (l *lexer) next() (kind Kind, start, line int) {
	start, line = l.pos, l.line
	for ; start < len(l.src); start++ {
		if c := l.src[start]; c == '\n' {
			line++
		} else if c != ' ' && c != '\t' && c != '\r' {
			break
		}
	}
	l.pos, l.line = start, line
	if l.pos >= len(l.src) {
		return TokenEOF, start, line
	}
	c := l.src[l.pos]
	switch kind = firstKind[c]; kind {
	case TokenPunct:
		l.pos++
	case TokenString:
		l.scanQuoted('\'')
	case TokenNumber:
		l.scanNumber()
	default:
		kind = l.scanOther(c)
	}
	return kind, start, line
}

// scanOther consumes a token whose first byte firstKind does not
// dispatch, trying the cases in order, and returns its kind.
func (l *lexer) scanOther(c byte) Kind {
	switch {
	case c == '-' && l.peekAt(1) == '-':
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return TokenComment
	case c == '#':
		// MySQL line comment.
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return TokenComment
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
		return TokenComment
	case c == '"':
		l.scanQuoted('"')
		return TokenQuotedIdent
	case c == '`':
		l.scanQuoted('`')
		return TokenQuotedIdent
	case c == '[' && looksLikeBracketIdent(l.src[l.pos:]):
		for l.pos < len(l.src) && l.src[l.pos] != ']' {
			l.pos++
		}
		if l.pos < len(l.src) {
			l.pos++ // consume ']'
		}
		return TokenQuotedIdent
	case c == '.' && isDigit(l.peekAt(1)):
		l.scanNumber()
		return TokenNumber
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		if isKeywordFold(l.src[start:l.pos]) {
			return TokenKeyword
		}
		return TokenIdent
	case c == '?':
		l.pos++
		return TokenPlaceholder
	case c == '$' && isDigit(l.peekAt(1)):
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return TokenPlaceholder
	case c == ':' && isIdentStart(l.peekAt(1)):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return TokenPlaceholder
	case c == '%' && l.peekAt(1) == 's':
		// Python-style interpolation placeholder, common in embedded SQL.
		l.pos += 2
		return TokenPlaceholder
	case c == '.' || c == '[' || c == ']':
		l.pos++
		return TokenPunct
	default:
		if l.scanOperator() {
			return TokenOperator
		}
		l.pos++
		return TokenOther
	}
}

// scanQuoted consumes a quoted region starting at the current position
// (which must hold the opening quote). Doubled quotes escape the quote
// character; backslash escapes are honored inside single quotes since
// MySQL permits them. An unterminated quote consumes to end of input
// rather than failing — the lexer is non-validating.
//
// The scan runs on locals and stores the lexer's position and line
// once: through the pointer, every byte paid a load and a store.
func (l *lexer) scanQuoted(q byte) {
	src, i, line := l.src, l.pos+1, l.line // i is past the opening quote
	for i < len(src) {
		c := src[i]
		if c == '\\' && q == '\'' && i+1 < len(src) {
			i += 2
			continue
		}
		if c == q {
			if i+1 < len(src) && src[i+1] == q { // doubled quote escape
				i += 2
				continue
			}
			i++
			break
		}
		if c == '\n' {
			line++
		}
		i++
	}
	l.pos, l.line = i, line
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
// the statement splitter must agree with the token stream on which
// bytes a statement contains.
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

// StmtPrint locates one statement of a script.
type StmtPrint struct {
	// Text is the statement without its terminating semicolon, trimmed
	// of the lexer's whitespace class at both ends.
	Text string
	// Start and End delimit Text within the script:
	// script[Start:End] == Text.
	Start, End int
	// Line is the 1-based line number of the statement's first token.
	Line int
}

// Statements iterates over the statements of a script in a single
// lexing pass; it is the one statement-boundary rule of the program.
// A statement ends at a semicolon outside strings, comments and
// parentheses, or at end of input, and statements without a
// significant token are skipped. Each step yields where the statement
// lies together with its significant tokens exactly as
// LexSignificant(st.Text) returns them: positions and line numbers
// relative to the text, EOF-terminated. Splitting and then lexing
// each statement would lex every byte twice and allocate a token
// array per statement; here the tokens go into one buffer that every
// step reuses, so a consumer must copy any token it keeps past the
// step.
//
// The fuzz contract (assertSplitAgreement) holds the iterator to a
// split-then-lex reference kept in the tests.
func Statements(input string) iter.Seq2[StmtPrint, []Token] {
	return func(yield func(StmtPrint, []Token) bool) {
		l := lexer{src: input, line: 1}
		var (
			// Room for a typical statement: where the iterator
			// inlines (FingerprintScript), a buffer that never grows
			// stays on the stack.
			toks      = make([]Token, 0, 64)
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
			kind, start, line := l.next()
			// A TokenPunct is one byte; the boundary and depth tests
			// read it instead of comparing strings.
			var punct byte
			if kind == TokenPunct {
				punct = input[start]
			}
			switch {
			case kind == TokenEOF || (punct == ';' && depth == 0):
				if begin >= 0 {
					text := trimLexSpace(input[begin:start])
					end := begin + len(text)
					if last.Pos+len(last.Text) > end {
						// A token that runs to end of input (an
						// unterminated quote or block comment) swallowed
						// whitespace the trim dropped. Re-lex it against
						// the trimmed end, as lexing text alone would.
						sub := lexer{src: input[:end], pos: last.Pos, line: last.Line}
						sub.next()
						lastLine = sub.line
						if last.Kind != TokenComment {
							toks[len(toks)-1].Text = input[last.Pos:sub.pos]
						}
					}
					toks = append(toks, Token{Kind: TokenEOF, Pos: len(text), Line: lastLine - beginLine + 1})
					if !yield(StmtPrint{Text: text, Start: begin, End: end, Line: beginLine}, toks) {
						return
					}
				}
				if kind == TokenEOF {
					return
				}
				begin, toks = -1, toks[:0]
			case kind == TokenComment:
				// Inside a statement a comment is part of its text
				// (it can hold newlines), but never a token of it.
				if begin >= 0 {
					last, lastLine = Token{Kind: kind, Text: input[start:l.pos], Pos: start, Line: line}, l.line
				}
			default:
				if begin < 0 {
					begin, beginLine = start, line
				}
				if punct == '(' {
					depth++
				} else if punct == ')' && depth > 0 {
					depth--
				}
				last, lastLine = Token{Kind: kind, Text: input[start:l.pos], Pos: start, Line: line}, l.line
				// Field by field: an appended Token literal is built
				// on the stack and copied, which stalls on every token.
				toks = append(toks, Token{})
				tk := &toks[len(toks)-1]
				tk.Kind, tk.Text, tk.Pos, tk.Line = kind, input[start:l.pos], start-begin, line-beginLine+1
			}
		}
	}
}
