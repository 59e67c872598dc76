package parser_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlcheck/internal/corpus"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage"
)

// parseAllScripts is the corpus the script path is held to the
// single-statement path on: the golden corpus's GitHub and Django
// workloads, the default GitHub corpus, every Kaggle database rendered
// as a script, a tenant-data fixture of multi-row INSERTs, and the
// splitter's edge cases.
func parseAllScripts() map[string]string {
	scripts := map[string]string{
		"tenant-fixture": corpus.TenantFixture(600, 250, 15),
		"edges": "SELECT f(1; 2) FROM t; INSERT INTO t VALUES (1, 'a'), (), (2), (3, 'b', -4.5e3);\r\n" +
			"SELECT 1 /* c\n */ ;UPDATE t SET a = 'x' WHERE b IN (1, 2, 'three') -- tail\r\n;" +
			"SELECT CAST('1' AS INT), (1), ('s'), [x y] FROM u;" +
			"SELECT 1 + 2, f('a' || 'b', 3 * 4), 5 AND 6, 7 IS NULL, '8'::int, 9 BETWEEN 1 AND 2 FROM t WHERE x = 5 - 1;" +
			"SELECT 'unterminated \n  ",
	}
	for _, repo := range corpus.GitHub(corpus.GitHubOptions{Repos: 6, Seed: 3}).Repos {
		scripts["golden/github/"+repo.Name] = strings.Join(repo.Statements, ";\n")
	}
	for _, app := range corpus.DjangoSuite(corpus.DjangoSuiteOptions{})[:3] {
		scripts["golden/django/"+app.Name] = strings.Join(app.Statements, ";\n")
	}
	for _, repo := range corpus.GitHub(corpus.GitHubOptions{}).Repos {
		scripts["github/"+repo.Name] = strings.Join(repo.Statements, ";\n")
	}
	for _, k := range corpus.KaggleSuite(corpus.KaggleSuiteOptions{}) {
		scripts["kaggle/"+k.Name] = kaggleScript(k.DB)
	}
	return scripts
}

// TestParseAllMatchesPerStatementParse holds the script path (one
// lexing pass, shared token buffer) to the reference path (each
// statement's text, as FingerprintScript records it, lexed and parsed
// alone): every statement's AST must be deeply equal. The sqltoken
// split-agreement contract holds those texts to its own splitter. It
// also holds parseExpr's literal fast path to the full precedence
// climb at every literal of every statement.
func TestParseAllMatchesPerStatementParse(t *testing.T) {
	for name, script := range parseAllScripts() {
		texts := sqltoken.FingerprintScript(script).Texts()
		got := parser.ParseAll(script)
		if len(got) != len(texts) {
			t.Errorf("%s: ParseAll returned %d statements, FingerprintScript %d", name, len(got), len(texts))
			continue
		}
		for i, text := range texts {
			if want := parser.Parse(text); !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: statement %d AST differs from Parse(%.60q)\ngot:  %#v\nwant: %#v", name, i, text, got[i], want)
			}
			if pos, fast, climb := parser.FastPathMismatch(text); pos >= 0 {
				t.Errorf("%s: statement %d: literal fast path at token %d built %#v, precedence climb %#v", name, i, pos, fast, climb)
			}
		}
	}
}

// kaggleScript renders a Kaggle database as the script that would
// build it: a CREATE TABLE per table, then its rows in multi-row
// INSERTs of up to 50 rows.
func kaggleScript(db *storage.Database) string {
	typeNames := map[schema.TypeClass]string{
		schema.ClassInteger: "INT", schema.ClassExactNumeric: "DECIMAL(10, 2)",
		schema.ClassApproxNumeric: "FLOAT", schema.ClassChar: "VARCHAR(40)",
		schema.ClassBool: "BOOLEAN", schema.ClassDate: "DATE",
		schema.ClassTimeTZ: "TIMESTAMP WITH TIME ZONE", schema.ClassTimeNoTZ: "TIMESTAMP",
	}
	var b strings.Builder
	for _, t := range db.Tables() {
		cols := make([]string, len(t.Cols))
		for i, c := range t.Cols {
			typ, ok := typeNames[c.Class]
			if !ok {
				typ = "TEXT"
			}
			cols[i] = c.Name + " " + typ
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (%s);\n", t.Name, strings.Join(cols, ", "))
		n := 0
		t.ScanReadOnly(func(_ int64, r storage.Row) bool {
			if n%50 == 0 {
				if n > 0 {
					b.WriteString(";\n")
				}
				fmt.Fprintf(&b, "INSERT INTO %s VALUES ", t.Name)
			} else {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for i, v := range r {
				if i > 0 {
					b.WriteString(", ")
				}
				switch v.Kind {
				case storage.KindNull:
					b.WriteString("NULL")
				case storage.KindInt, storage.KindFloat:
					b.WriteString(v.String())
				default:
					b.WriteString("'" + strings.ReplaceAll(v.String(), "'", "''") + "'")
				}
			}
			b.WriteString(")")
			n++
			return true
		})
		if n > 0 {
			b.WriteString(";\n")
		}
	}
	return b.String()
}
