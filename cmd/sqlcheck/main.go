// Command sqlcheck analyzes SQL files (or stdin) for anti-patterns and
// prints ranked findings with suggested fixes — the interactive-shell
// interface of the paper's §7.
//
// Usage:
//
//	sqlcheck [flags] [file.sql ...]
//	sqlcheck -i                  # interactive shell
//	echo "SELECT * FROM t" | sqlcheck
//
// Flags:
//
//	-mode inter|intra     analysis mode (default inter)
//	-weights c1|c2        ranking weights: c1 read-heavy, c2 hybrid
//	-min-confidence 0.5   confidence threshold
//	-format text|json     output format
//	-rules id1,id2        restrict detection to specific rule IDs;
//	                      analysis phases the selection does not need
//	                      are skipped, and unknown IDs are an error
//	-list-rules           print the anti-pattern catalog (IDs, scopes,
//	                      needs, impact flags) and exit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sqlcheck"
	"sqlcheck/internal/sqltoken"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sqlcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode      = fs.String("mode", "inter", "analysis mode: inter or intra")
		weights   = fs.String("weights", "c1", "ranking weights: c1 (read-heavy) or c2 (hybrid)")
		minConf   = fs.Float64("min-confidence", 0, "drop findings below this confidence (default 0.5)")
		format    = fs.String("format", "text", "output format: text or json")
		ruleList  = fs.String("rules", "", "comma-separated rule IDs to check (default all)")
		listRules = fs.Bool("list-rules", false, "print the anti-pattern catalog and exit")
		shell     = fs.Bool("i", false, "interactive shell: analyze each line/statement typed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listRules {
		printRules(stdout)
		return 0
	}

	opts := sqlcheck.Options{MinConfidence: *minConf}
	switch *mode {
	case "intra":
		opts.Mode = sqlcheck.IntraQuery
	case "inter":
		opts.Mode = sqlcheck.InterQuery
	default:
		fmt.Fprintf(stderr, "sqlcheck: unknown mode %q\n", *mode)
		return 2
	}
	switch *weights {
	case "c1":
		opts.Weights = sqlcheck.ReadHeavy
	case "c2":
		opts.Weights = sqlcheck.Hybrid
	default:
		fmt.Fprintf(stderr, "sqlcheck: unknown weights %q\n", *weights)
		return 2
	}
	if *ruleList != "" {
		opts.Rules = strings.Split(*ruleList, ",")
	}
	checker := sqlcheck.New(opts)

	if *shell {
		return runShell(checker, stdin, stdout, stderr)
	}

	var sqlText string
	if fs.NArg() == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "sqlcheck: reading stdin: %v\n", err)
			return 1
		}
		sqlText = string(data)
	} else {
		var parts []string
		for _, path := range fs.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "sqlcheck: %v\n", err)
				return 1
			}
			parts = append(parts, string(data))
		}
		sqlText = strings.Join(parts, ";\n")
	}

	report, err := checker.CheckSQL(sqlText)
	if err != nil {
		fmt.Fprintf(stderr, "sqlcheck: %v\n", err)
		return 1
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "sqlcheck: %v\n", err)
			return 1
		}
	default:
		printText(stdout, report)
	}
	if len(report.Findings) > 0 {
		return 1
	}
	return 0
}

// printRules renders the catalog with the metadata detection is
// planned from: scope list, resource needs, and Table 1 impact
// letters (P performance, M maintainability, D± data amplification —
// the sign is the direction a fix moves it, I integrity, A accuracy).
func printRules(w io.Writer) {
	fmt.Fprintf(w, "%-26s %-16s %-18s %-16s %-6s %s\n",
		"ID", "CATEGORY", "SCOPES", "NEEDS", "IMPACT", "NAME")
	for _, r := range sqlcheck.Rules() {
		impact := ""
		if r.Impact.Performance {
			impact += "P"
		}
		if r.Impact.Maintainability {
			impact += "M"
		}
		switch {
		case r.Impact.DataAmplification > 0:
			impact += "D+" // fixing the AP increases data amplification
		case r.Impact.DataAmplification < 0:
			impact += "D-" // fixing decreases it
		}
		if r.Impact.DataIntegrity {
			impact += "I"
		}
		if r.Impact.Accuracy {
			impact += "A"
		}
		needs := strings.Join(r.Needs, ",")
		if needs == "" {
			needs = "-"
		}
		fmt.Fprintf(w, "%-26s %-16s %-18s %-16s %-6s %s\n",
			r.ID, r.Category, strings.Join(r.Scopes, ","), needs, impact, r.Name)
	}
}

func printText(w io.Writer, report *sqlcheck.Report) {
	if len(report.Findings) == 0 {
		fmt.Fprintln(w, "no anti-patterns found")
		return
	}
	fmt.Fprintf(w, "%d anti-pattern(s) in %d statement(s), highest impact first:\n\n",
		len(report.Findings), report.Statements)
	for i, f := range report.Findings {
		site := ""
		switch {
		case f.Table != "" && f.Column != "":
			site = fmt.Sprintf(" [%s.%s]", f.Table, f.Column)
		case f.Table != "":
			site = fmt.Sprintf(" [%s]", f.Table)
		}
		loc := "schema/data"
		if f.Query >= 0 {
			loc = fmt.Sprintf("statement %d", f.Query+1)
		}
		fmt.Fprintf(w, "%2d. %s (%s, %s)%s score=%.3f\n", i+1, f.Name, f.Category, loc, site, f.Score)
		fmt.Fprintf(w, "    %s\n", f.Message)
		for _, rw := range f.Fix.Rewrites {
			fmt.Fprintf(w, "    fix: %s\n", rw.Fixed)
		}
		for _, st := range f.Fix.NewStatements {
			fmt.Fprintf(w, "    run: %s\n", st)
		}
		if f.Fix.Guidance != "" {
			fmt.Fprintf(w, "    note: %s\n", f.Fix.Guidance)
		}
		fmt.Fprintln(w)
	}
}

// runShell reads statements interactively and analyzes the pending
// text once a top-level semicolon ends its last statement; a
// semicolon inside a string, a comment or parentheses keeps reading.
func runShell(checker *sqlcheck.Checker, stdin io.Reader, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, "sqlcheck shell — terminate statements with ';', exit with \\q")
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Fprint(stdout, "sql> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == `\q` {
			return 0
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		// Appending text never turns an earlier semicolon into a
		// top-level one, so only a line holding one can end the input.
		if !strings.Contains(line, ";") || !terminated(pending.String()) {
			prompt()
			continue
		}
		report, err := checker.CheckSQL(pending.String())
		pending.Reset()
		if err != nil {
			fmt.Fprintf(stderr, "error: %v\n", err)
		} else {
			printText(stdout, report)
		}
		prompt()
	}
	return 0
}

// terminated reports whether a top-level semicolon follows the last
// statement of sql, as sqltoken.Statements splits it. Past that
// statement there are only whitespace, comments and semicolons.
func terminated(sql string) bool {
	end := -1
	for st := range sqltoken.Statements(sql) {
		end = st.End
	}
	return end >= 0 && len(sqltoken.LexSignificant(sql[end:])) > 1
}
