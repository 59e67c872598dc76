package sqltoken

import (
	"strings"
	"testing"
	"testing/quick"
)

func kindsOf(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestLexSimpleSelect(t *testing.T) {
	toks := LexSignificant("SELECT id, name FROM users WHERE id = 42;")
	want := []struct {
		kind Kind
		text string
	}{
		{TokenKeyword, "SELECT"},
		{TokenIdent, "id"},
		{TokenPunct, ","},
		{TokenIdent, "name"},
		{TokenKeyword, "FROM"},
		{TokenIdent, "users"},
		{TokenKeyword, "WHERE"},
		{TokenIdent, "id"},
		{TokenOperator, "="},
		{TokenNumber, "42"},
		{TokenPunct, ";"},
		{TokenEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexStringLiterals(t *testing.T) {
	cases := []struct {
		in   string
		text string
	}{
		{`'hello'`, `'hello'`},
		{`'it''s'`, `'it''s'`},
		{`'back\'slash'`, `'back\'slash'`},
		{`'unterminated`, `'unterminated`},
		{`'multi
line'`, "'multi\nline'"},
	}
	for _, c := range cases {
		toks := LexSignificant(c.in)
		if toks[0].Kind != TokenString {
			t.Errorf("Lex(%q)[0].Kind = %v, want String", c.in, toks[0].Kind)
		}
		if toks[0].Text != c.text {
			t.Errorf("Lex(%q)[0].Text = %q, want %q", c.in, toks[0].Text, c.text)
		}
	}
}

func TestLexQuotedIdentifiers(t *testing.T) {
	cases := []struct {
		in    string
		ident string
	}{
		{`"User Name"`, "User Name"},
		{"`backtick`", "backtick"},
		{`[bracketed]`, "bracketed"},
		{`"doubled""quote"`, `doubled"quote`},
	}
	for _, c := range cases {
		toks := LexSignificant(c.in)
		if toks[0].Kind != TokenQuotedIdent {
			t.Errorf("Lex(%q)[0].Kind = %v, want QuotedIdent", c.in, toks[0].Kind)
			continue
		}
		if got := toks[0].Ident(); got != c.ident {
			t.Errorf("Lex(%q).Ident() = %q, want %q", c.in, got, c.ident)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	for _, in := range []string{"0", "42", "3.14", ".5", "1e10", "2.5E-3", "6e+2"} {
		toks := LexSignificant(in)
		if toks[0].Kind != TokenNumber || toks[0].Text != in {
			t.Errorf("Lex(%q) = (%v, %q), want full Number", in, toks[0].Kind, toks[0].Text)
		}
	}
	// "1e" is a number followed by an identifier-ish tail, not an exponent.
	toks := LexSignificant("1efoo")
	if toks[0].Text != "1" {
		t.Errorf("Lex(1efoo)[0] = %q, want 1", toks[0].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks := Lex("SELECT 1 -- trailing\n/* block\ncomment */ # mysql\n2")
	var comments []string
	for _, tk := range toks {
		if tk.Kind == TokenComment {
			comments = append(comments, tk.Text)
		}
	}
	if len(comments) != 3 {
		t.Fatalf("got %d comments (%q), want 3", len(comments), comments)
	}
	if !strings.Contains(comments[1], "block") {
		t.Errorf("block comment not captured: %q", comments[1])
	}
}

func TestLexOperators(t *testing.T) {
	toks := LexSignificant("a <= b >= c <> d != e || f :: g == h")
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokenOperator {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!=", "||", "::", "=="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexPlaceholders(t *testing.T) {
	cases := map[string]string{
		"?":     "?",
		"$1":    "$1",
		":name": ":name",
		"%s":    "%s",
	}
	for in, text := range cases {
		toks := LexSignificant(in)
		if toks[0].Kind != TokenPlaceholder || toks[0].Text != text {
			t.Errorf("Lex(%q) = (%v,%q), want Placeholder %q", in, toks[0].Kind, toks[0].Text, text)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks := LexSignificant("SELECT\n1\nFROM\nt")
	if toks[3].Line != 4 {
		t.Errorf("token %q line = %d, want 4", toks[3].Text, toks[3].Line)
	}
}

func TestLexKeywordCaseInsensitive(t *testing.T) {
	for _, in := range []string{"select", "Select", "SELECT", "sElEcT"} {
		toks := LexSignificant(in)
		if toks[0].Kind != TokenKeyword {
			t.Errorf("Lex(%q) kind = %v, want Keyword", in, toks[0].Kind)
		}
	}
}

// Property: lexing loses no input — concatenating all token texts
// (including whitespace/comments) reconstructs the original string.
func TestLexRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Lex(s)
		var b strings.Builder
		for _, tk := range toks {
			b.WriteString(tk.Text)
		}
		return b.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Also with SQL-ish corpus seeds.
	for _, s := range []string{
		"SELECT * FROM t WHERE a LIKE '%x%' AND b IN (1,2,3);",
		"INSERT INTO t VALUES ('a', 'b''c', NULL, 3.5)",
		"CREATE TABLE x(id INT PRIMARY KEY, v VARCHAR(10) -- comment\n)",
		"UPDATE t SET a = a || 'suffix' WHERE id = $1",
		"'unterminated string with ; semicolon",
	} {
		if !f(s) {
			t.Errorf("round trip failed for %q", s)
		}
	}
}

// Property: token positions are strictly increasing and in-bounds.
func TestLexPositionsMonotonic(t *testing.T) {
	f := func(s string) bool {
		toks := Lex(s)
		prevEnd := 0
		for _, tk := range toks {
			if tk.Kind == TokenEOF {
				return tk.Pos == len(s)
			}
			if tk.Pos != prevEnd {
				return false
			}
			prevEnd = tk.Pos + len(tk.Text)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitStatements(t *testing.T) {
	in := `
CREATE TABLE t (a INT); -- first
SELECT 1; SELECT 'a;b';
INSERT INTO t VALUES (1);
`
	got := SplitStatements(in)
	want := []string{
		"CREATE TABLE t (a INT)",
		"SELECT 1",
		"SELECT 'a;b'",
		"INSERT INTO t VALUES (1)",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stmts %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stmt %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSplitStatementsEdge(t *testing.T) {
	if got := SplitStatements(""); len(got) != 0 {
		t.Errorf("empty input: got %q", got)
	}
	if got := SplitStatements(";;;"); len(got) != 0 {
		t.Errorf("only semicolons: got %q", got)
	}
	if got := SplitStatements("-- just a comment"); len(got) != 0 {
		t.Errorf("only comment: got %q", got)
	}
	got := SplitStatements("SELECT 1") // no trailing semicolon
	if len(got) != 1 || got[0] != "SELECT 1" {
		t.Errorf("no-semicolon: got %q", got)
	}
}

func TestTokenHelpers(t *testing.T) {
	toks := LexSignificant("SELECT foo")
	if !toks[0].Is("SELECT") {
		t.Error("Is(SELECT) = false")
	}
	if toks[0].Is("FROM") {
		t.Error("Is(FROM) = true")
	}
	if !toks[1].Is("FOO") {
		t.Error("ident Is(FOO) = false")
	}
	st := Token{Kind: TokenString, Text: "'SELECT'"}
	if st.Is("SELECT") {
		t.Error("string token must not match Is")
	}
	if Kind(999).String() != "Unknown" {
		t.Error("unknown kind name")
	}
	if TokenKeyword.String() != "Keyword" {
		t.Error("kind name")
	}
}

func BenchmarkLex(b *testing.B) {
	q := "SELECT u.id, u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id WHERE o.total > 100 AND u.email LIKE '%@example.com' ORDER BY o.total DESC LIMIT 50"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lex(q)
	}
}
