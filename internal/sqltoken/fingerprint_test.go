package sqltoken

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fpScripts is a cross-section of shapes the splitter and fingerprint
// must agree on: multi-statement scripts, semicolons inside strings
// and parens, comments, placeholders, quoted identifiers, unterminated
// tokens.
var fpScripts = []string{
	"",
	"   \n\t  ",
	";;;",
	"SELECT 1",
	"SELECT * FROM t WHERE a = 1; INSERT INTO t VALUES (2, 'x;y')",
	"SELECT a, b FROM t WHERE name LIKE '%go%' ORDER BY b DESC LIMIT 10",
	"-- leading comment\nSELECT /* inline */ 1;\n# mysql comment\nUPDATE t SET x = 2 WHERE id = ?",
	"CREATE TABLE t (id INT PRIMARY KEY, v TEXT); SELECT [col 1] FROM \"Tab\" WHERE x = $1",
	"SELECT f(a, (b; )) FROM t", // semicolon inside parens does not split
	"SELECT 'unterminated",
	"SELECT 1 /* unterminated",
	"INSERT INTO t VALUES (1.5e-3, 0xno, .25, 'it''s', :named, %s)",
	"SELECT `q`.`x` FROM q WHERE a <=> b AND c != d",
}

// splitTraps are the inputs where a one-pass splitter can drift from
// split-then-lex: tokens that run to end of input and swallow the
// whitespace the statement trim drops, CRLF endings, comments between
// a statement's last token and its semicolon, semicolons inside
// parentheses, and bytes the lexer does not treat as whitespace.
var splitTraps = []string{
	"SELECT \"unterminated ident \n\t ",
	"SELECT 1; SELECT 'unterminated string \r\n  ",
	"SELECT [unterminated bracket   \n",
	"SELECT 'escaped newline\\\n  \n",
	"SELECT 1 /* unterminated\n comment\n\n  ",
	"SELECT 1;\r\nINSERT INTO t VALUES (2)\r\n;\r\n\r\n",
	"SELECT 1 /* c\n */ ;SELECT 2 -- tail\r\n;SELECT 3 -- end\r\n",
	"SELECT f(1; 2) FROM t; SELECT (a;\nb) FROM u",
	"SELECT\v1\f FROM t\u00a0;\v;\f; \u00a0 ",
}

// TestFingerprintSplitAgreement pins the one invariant everything
// else builds on: the statements Statements yields, and so the ones
// FingerprintScript records, are exactly what the SplitStatements
// reference returns, located in the input.
func TestFingerprintSplitAgreement(t *testing.T) {
	for _, src := range append(slices.Clip(fpScripts), splitTraps...) {
		t.Run(fmt.Sprintf("%.30q", src), func(t *testing.T) {
			assertSplitAgreement(t, src)
		})
	}
}

func assertSplitAgreement(t *testing.T, src string) {
	t.Helper()
	sp := FingerprintScript(src)
	want := SplitStatements(src)
	got := sp.Texts()
	if len(got) != len(want) {
		t.Fatalf("FingerprintScript found %d statements, SplitStatements %d\ngot:  %q\nwant: %q",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("statement %d text mismatch\ngot:  %q\nwant: %q", i, got[i], want[i])
		}
		st := sp.Stmts[i]
		if st.Start < 0 || st.End > len(src) || src[st.Start:st.End] != st.Text {
			t.Errorf("statement %d span [%d,%d) does not locate its text in the input", i, st.Start, st.End)
			continue
		}
		if line := strings.Count(src[:st.Start], "\n") + 1; st.Line != line {
			t.Errorf("statement %d line = %d, want %d", i, st.Line, line)
		}
	}
	// The one-pass iterator yields the same texts and, for each, the
	// tokens LexSignificant(text) returns, equal in every field, EOF
	// included.
	n := 0
	for st, toks := range Statements(src) {
		if n >= len(want) {
			t.Fatalf("Statements yielded more than the %d statements SplitStatements found", len(want))
		}
		if st.Text != want[n] {
			t.Errorf("Statements text %d mismatch\ngot:  %q\nwant: %q", n, st.Text, want[n])
		}
		if ref := LexSignificant(st.Text); !slices.Equal(toks, ref) {
			t.Errorf("Statements tokens %d differ from LexSignificant(%q)\ngot:  %+v\nwant: %+v", n, st.Text, toks, ref)
		}
		n++
	}
	if n != len(want) {
		t.Errorf("Statements yielded %d statements, SplitStatements %d", n, len(want))
	}
}

// closeToken terminates an unterminated quoted token (possible only
// at end of input) so separator bytes appended by rebuild cannot be
// absorbed into its raw text. Quoted identifiers hash verbatim, so an
// absorbed separator would legitimately change the fingerprint.
func closeToken(t Token) Token {
	if t.Kind != TokenQuotedIdent && t.Kind != TokenString {
		return t
	}
	if probe := Lex(t.Text + " x"); probe[0].Text == t.Text {
		return t // terminated: the probe suffix was not swallowed
	}
	if t.Text[0] == '[' {
		t.Text += "]"
	} else {
		t.Text += string(t.Text[0])
	}
	return t
}

// rebuild renders the script from its significant tokens, transformed
// per token — the variant generator for the normalization tests.
func rebuild(src string, sep string, transform func(Token) string) string {
	var b strings.Builder
	depth := 0
	for _, tok := range Lex(src) {
		switch {
		case tok.Kind == TokenEOF:
		case tok.Kind == TokenWhitespace || tok.Kind == TokenComment:
		case tok.IsPunct(";") && depth == 0:
			b.WriteString(";")
			b.WriteString(sep)
			continue
		default:
			if tok.IsPunct("(") {
				depth++
			} else if tok.IsPunct(")") && depth > 0 {
				depth--
			}
		}
		if tok.Kind != TokenEOF && tok.Kind != TokenWhitespace && tok.Kind != TokenComment && !(tok.IsPunct(";") && depth == 0) {
			b.WriteString(transform(closeToken(tok)))
			b.WriteString(sep)
		}
	}
	return b.String()
}

func identity(t Token) string { return t.Text }

// swapCase flips ASCII letter case in keywords and unquoted
// identifiers (case-insensitive in SQL, normalized by the hash).
func swapCase(t Token) string {
	if t.Kind != TokenKeyword && t.Kind != TokenIdent {
		return t.Text
	}
	out := []byte(t.Text)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z':
			out[i] = c - ('a' - 'A')
		case c >= 'A' && c <= 'Z':
			out[i] = c + ('a' - 'A')
		}
	}
	return string(out)
}

// relabelLiterals substitutes every literal value and placeholder
// spelling while preserving kinds.
func relabelLiterals(t Token) string {
	switch t.Kind {
	case TokenNumber:
		return "424242.5"
	case TokenString:
		return "'relabeled literal'"
	case TokenPlaceholder:
		return "$99"
	default:
		return t.Text
	}
}

func TestFingerprintNormalization(t *testing.T) {
	for _, src := range fpScripts {
		base := FingerprintScript(rebuild(src, " ", identity))
		variants := map[string]string{
			"whitespace": rebuild(src, "  \n\t ", identity),
			"comments":   rebuild(src, " /* v */ ", identity),
			"case":       rebuild(src, " ", swapCase),
			"literals":   rebuild(src, " ", relabelLiterals),
		}
		for name, v := range variants {
			got := FingerprintScript(v)
			if got.Fingerprint != base.Fingerprint {
				t.Errorf("%s variant of %.40q changed the fingerprint\nbase:    %q\nvariant: %q",
					name, src, rebuild(src, " ", identity), v)
			}
			if len(got.Stmts) != len(base.Stmts) {
				t.Errorf("%s variant of %.40q changed the statement count", name, src)
			}
		}
	}
}

// TestFingerprintDistinguishes pins structural sensitivity: pairs
// that must NOT collide.
func TestFingerprintDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"SELECT a FROM t", "SELECT b FROM t"},                           // identifier spelling
		{"SELECT a FROM t", "SELECT a, b FROM t"},                        // token count
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x > 1"},   // operator
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = '1'"}, // literal kind
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = ?"},   // literal vs placeholder
		{"SELECT \"A\" FROM t", "SELECT \"a\" FROM t"},                   // quoted idents stay case-sensitive
		{"SELECT 1; SELECT 2", "SELECT 1"},                               // statement count
		{"SELECT 1", ""},                                                 // empty script
	}
	for _, p := range pairs {
		a, b := FingerprintScript(p[0]), FingerprintScript(p[1])
		if a.Fingerprint == b.Fingerprint {
			t.Errorf("fingerprint collision between structurally distinct scripts %q and %q", p[0], p[1])
		}
	}
}

// FuzzFingerprintStability fuzzes the two contracts at once: the
// statements always agree with the SplitStatements reference, and
// rebuilding the script with different whitespace, comment, literal,
// and case choices never moves the fingerprint.
func FuzzFingerprintStability(f *testing.F) {
	for _, src := range append(slices.Clip(fpScripts), splitTraps...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		assertSplitAgreement(t, src)
		base := rebuild(src, " ", identity)
		fp := FingerprintScript(base).Fingerprint
		for _, v := range []string{
			rebuild(src, " \t\n", identity),
			rebuild(src, " -- c\n", identity),
			rebuild(src, " ", swapCase),
			rebuild(src, " ", relabelLiterals),
		} {
			if got := FingerprintScript(v).Fingerprint; got != fp {
				t.Fatalf("variant changed fingerprint\nbase:    %q\nvariant: %q", base, v)
			}
		}
	})
}
