package sqltoken

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The references the tests hold the production paths to. Lex keeps
// every token, whitespace and comments included, and SplitStatements
// splits a script with its own loop over the lexer, so a change to
// Statements' boundary rule shows up as a disagreement with it
// (assertSplitAgreement). Both run refLexer, a frozen copy of the
// production lexer's scanning code as it stood before its dispatch was
// reordered for speed, so a change to the production lexer cannot
// move the reference with it (FuzzLexMatchesReference).

// Lex tokenizes the input SQL text. It never returns an error: input
// that cannot be classified becomes TokenOther tokens. The returned
// slice always ends with a TokenEOF token.
func Lex(input string) []Token {
	l := refLexer{src: input, line: 1}
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
	l := refLexer{src: input, line: 1}
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

// refLexer is the reference lexer: one token per call, whitespace and
// comments included, each case of next tried in order.
type refLexer struct {
	src  string
	pos  int
	line int
}

func (l *refLexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *refLexer) tok(k Kind, start, line int) Token {
	return Token{Kind: k, Text: l.src[start:l.pos], Pos: start, Line: line}
}

func (l *refLexer) next() Token {
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
	case c == '[' && refLooksLikeBracketIdent(l.src[l.pos:]):
		for l.pos < len(l.src) && l.src[l.pos] != ']' {
			l.pos++
		}
		if l.pos < len(l.src) {
			l.pos++
		}
		return l.tok(TokenQuotedIdent, start, startLine)
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		l.scanNumber()
		return l.tok(TokenNumber, start, startLine)
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		kind := TokenIdent
		if isKeywordFold(l.src[start:l.pos]) {
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

func (l *refLexer) scanQuoted(q byte) {
	l.pos++
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && q == '\'' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == q {
			if l.peekAt(1) == q {
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

func (l *refLexer) scanNumber() {
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
			l.pos = save
			return
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
}

var refOperators = []string{
	"<=>", "::", "||", "<<", ">>", "<=", ">=", "<>", "!=", "==", "->>",
	"->", "=", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
}

func (l *refLexer) scanOperator() bool {
	rest := l.src[l.pos:]
	for _, op := range refOperators {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return true
		}
	}
	return false
}

func refLooksLikeBracketIdent(s string) bool {
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

// refSignificant is LexSignificant by the reference: Lex's tokens
// without whitespace and comments, EOF included.
func refSignificant(input string) []Token {
	var out []Token
	for _, t := range Lex(input) {
		if t.Kind != TokenWhitespace && t.Kind != TokenComment {
			out = append(out, t)
		}
	}
	return out
}

// fixtureSlice is the head of corpus.TenantFixture(4000, 250, 1), cut
// inside a string: DDL, a multi-row VALUES list and an unterminated
// quote at end of input.
const fixtureSlice = "CREATE TABLE customers (customer_id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, tags TEXT, zip VARCHAR(10), city VARCHAR(30));\n" +
	"INSERT INTO customers VALUES (0, 'name28519', 'tag35,tag1', 'Z0005', 'city5'), (1, 'name67045', 'tag0,tag30', 'Z0008', 'city8'), " +
	"(2, 'name3870', 'tag2,tag16,tag19,tag35', 'Z0057', 'city9'), (3, 'name14', 'tag6,tag4', 'Z0041', 'city5'), (4, 'name93676', 'tag39,tag29', 'Z0045', 'city9'), " +
	"(5, 'name72231', 'tag36,tag2,tag13,tag36', 'Z0011', 'city11'), (6, 'name72780', 'tag1,tag8,tag4,tag22', 'Z0015', 'city3'), " +
	"(7, 'name29955', 'tag1,tag32,tag38,tag38', 'Z0039', 'city3'), (8, 'name68218', 'tag37,tag8', 'Z0059', 'city11'), (9, 'name69391', 'tag23,tag12,tag18', 'Z0048', 'ci"

// FuzzLexMatchesReference holds the production lexer to the frozen
// reference: LexSignificant(src), and the tokens Statements(src)
// yields for each statement, equal the reference's significant tokens
// in every field, EOF included, and the statements are the ones
// SplitStatements finds.
func FuzzLexMatchesReference(f *testing.F) {
	for _, src := range append(slices.Clip(fpScripts), splitTraps...) {
		f.Add(src)
	}
	f.Add(fixtureSlice)
	// The checked-in crashers of FuzzFingerprintStability, each a
	// "go test fuzz v1" file holding one quoted string.
	files, err := filepath.Glob("testdata/fuzz/FuzzFingerprintStability/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, _ := strings.Cut(string(b), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(arg), ")")))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := LexSignificant(src), refSignificant(src); !slices.Equal(got, want) {
			t.Fatalf("LexSignificant(%q) differs from the reference\ngot:  %+v\nwant: %+v", src, got, want)
		}
		texts := SplitStatements(src)
		n := 0
		for st, toks := range Statements(src) {
			if n >= len(texts) || st.Text != texts[n] {
				t.Fatalf("Statements(%q) statement %d = %q, reference statements %q", src, n, st.Text, texts)
			}
			if want := refSignificant(st.Text); !slices.Equal(toks, want) {
				t.Fatalf("Statements(%q) tokens %d differ from the reference\ngot:  %+v\nwant: %+v", src, n, toks, want)
			}
			n++
		}
		if n != len(texts) {
			t.Fatalf("Statements(%q) yielded %d statements, the reference %d", src, n, len(texts))
		}
	})
}
