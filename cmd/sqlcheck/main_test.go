package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestStdinAnalysis(t *testing.T) {
	code, out, _ := runCLI(t, nil, "SELECT * FROM t ORDER BY RAND()")
	if code != 1 {
		t.Errorf("exit = %d, want 1 (findings present)", code)
	}
	if !strings.Contains(out, "Ordering by RAND") {
		t.Errorf("output = %q", out)
	}
}

func TestCleanInputExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, nil, "SELECT a, b FROM t WHERE t_id = 1")
	if code != 0 {
		t.Errorf("exit = %d, want 0; out=%q", code, out)
	}
	if !strings.Contains(out, "no anti-patterns") {
		t.Errorf("output = %q", out)
	}
}

func TestFileAnalysisAndJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.sql")
	if err := os.WriteFile(path, []byte("INSERT INTO t VALUES (1, 2);"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, []string{"-format", "json", path}, "")
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out, `"rule": "implicit-columns"`) {
		t.Errorf("json output = %q", out)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errOut := runCLI(t, []string{"/nonexistent/file.sql"}, "")
	if code != 1 || !strings.Contains(errOut, "nonexistent") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := runCLI(t, []string{"-mode", "sideways"}, ""); code != 2 {
		t.Errorf("bad mode exit = %d", code)
	}
	if code, _, _ := runCLI(t, []string{"-weights", "c9"}, ""); code != 2 {
		t.Errorf("bad weights exit = %d", code)
	}
}

func TestListRules(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-list-rules"}, "")
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out, "multi-valued-attribute") {
		t.Errorf("output = %q", out)
	}
	// The catalog listing carries the planning metadata: scope and
	// needs columns, so users can compose phase-skipping subsets.
	for _, frag := range []string{"SCOPES", "NEEDS", "schema,profile", "query,data"} {
		if !strings.Contains(out, frag) {
			t.Errorf("listing lacks %q:\n%s", frag, out)
		}
	}
}

func TestUnknownRuleFlag(t *testing.T) {
	code, _, errOut := runCLI(t, []string{"-rules", "column-wildcard,wat"}, "SELECT 1")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "wat") {
		t.Errorf("stderr does not name the unknown rule: %q", errOut)
	}
}

func TestRuleFilterFlag(t *testing.T) {
	_, out, _ := runCLI(t, []string{"-rules", "column-wildcard"}, "SELECT * FROM t ORDER BY RAND()")
	if strings.Contains(out, "RAND") && strings.Contains(out, "Ordering") {
		t.Errorf("filter ignored: %q", out)
	}
	if !strings.Contains(out, "Wildcard") {
		t.Errorf("wildcard missing: %q", out)
	}
}

func TestInteractiveShell(t *testing.T) {
	input := "SELECT * FROM t;\n\\q\n"
	code, out, _ := runCLI(t, []string{"-i"}, input)
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out, "Wildcard") {
		t.Errorf("shell output = %q", out)
	}
	// A semicolon inside a string literal that spans lines does not
	// end the statement: the two lines are one analysis.
	_, out, _ = runCLI(t, []string{"-i"}, "INSERT INTO t (a) VALUES ('x;\ny');\n\\q\n")
	if n := strings.Count(out, "no anti-patterns found") + strings.Count(out, "anti-pattern(s) in"); n != 1 {
		t.Errorf("shell ran %d analyses of one statement; output = %q", n, out)
	}
}

func TestIntraModeFlag(t *testing.T) {
	sql := `
		CREATE TABLE a (a_id INT PRIMARY KEY);
		CREATE TABLE b (b_id INT PRIMARY KEY, a_id INT);
		SELECT b_id FROM b JOIN a ON a.a_id = b.a_id;
	`
	_, interOut, _ := runCLI(t, nil, sql)
	_, intraOut, _ := runCLI(t, []string{"-mode", "intra"}, sql)
	if !strings.Contains(interOut, "Foreign Key") {
		t.Errorf("inter mode missed FK: %q", interOut)
	}
	if strings.Contains(intraOut, "Foreign Key") {
		t.Errorf("intra mode found inter-query AP: %q", intraOut)
	}
}
