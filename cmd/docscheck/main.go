// docscheck fails when the named markdown files reference exported
// sqlcheck identifiers, option fields or sqlcheck_* Prometheus metric
// names that no longer exist in the source tree. README and DESIGN
// quote API snippets and /metrics output; nothing re-executes those
// fences, so a rename silently strands them. This gate greps the docs
// for `sqlcheck.Ident`, `Options.Field`, `Workload.Field` and
// `sqlcheck_metric_name` tokens and checks each against the real
// package surface (go/parser over the root package; fields against
// the Options and Workload structs of the root package and
// internal/core) and the real metric names (string literals in
// cmd/sqlcheckd).
//
// Run from the repository root: `make docs-check`, also part of
// `make ci`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	// sqlcheck.Ident — only exported (capitalized) names are checked;
	// lowercase matches are filenames (sqlcheck.go) or prose.
	identRe = regexp.MustCompile(`\bsqlcheck\.([A-Z][A-Za-z0-9_]*)`)
	// A /metrics exposition name. Docs may write a family with a
	// trailing wildcard (sqlcheck_report_cache_*); the match then ends
	// in '_' and is accepted as a prefix of a real name.
	metricRe = regexp.MustCompile(`\bsqlcheck_[a-z_]+`)
	// Options.Field or Workload.Field, with or without a package
	// qualifier in front.
	fieldRe = regexp.MustCompile(`\b(Options|Workload)\.([A-Z][A-Za-z0-9_]*)`)
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck FILE.md ...")
		os.Exit(2)
	}
	root, err := parsePackage(".", "sqlcheck")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck: parsing root package:", err)
		os.Exit(2)
	}
	core, err := parsePackage("internal/core", "core")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck: parsing internal/core:", err)
		os.Exit(2)
	}
	idents := exportedIdents(root)
	fields := fieldNames(root, core)
	metrics, err := metricNames("cmd/sqlcheckd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck: scanning daemon source:", err)
		os.Exit(2)
	}

	stale := 0
	for _, path := range os.Args[1:] {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range identRe.FindAllStringSubmatch(line, -1) {
				if !idents[m[1]] {
					fmt.Printf("%s:%d: stale identifier %s — not exported by package sqlcheck\n", path, i+1, m[0])
					stale++
				}
			}
			for _, m := range fieldRe.FindAllStringSubmatch(line, -1) {
				if !fields[m[0]] {
					fmt.Printf("%s:%d: stale field %s — not a field of %s in package sqlcheck or internal/core\n", path, i+1, m[0], m[1])
					stale++
				}
			}
			for _, tok := range metricRe.FindAllString(line, -1) {
				if !knownMetric(tok, metrics) {
					fmt.Printf("%s:%d: stale metric name %s — not rendered by cmd/sqlcheckd\n", path, i+1, tok)
					stale++
				}
			}
		}
	}
	if stale > 0 {
		fmt.Printf("docscheck: %d stale reference(s); update the docs or the identifier lists\n", stale)
		os.Exit(1)
	}
}

// parsePackage parses the named package in dir, tests excluded.
func parsePackage(dir, name string) (*ast.Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	pkg, ok := pkgs[name]
	if !ok {
		names := make([]string, 0, len(pkgs))
		for n := range pkgs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("package %s not found in %s (found %v)", name, dir, names)
	}
	return pkg, nil
}

// exportedIdents returns a package's exported top-level names: types,
// funcs, consts, vars.
func exportedIdents(pkg *ast.Package) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return out
}

// fieldNames returns "Type.Field" for every field of every struct
// type that pkgs declare.
func fieldNames(pkgs ...*ast.Package) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							out[ts.Name.Name+"."+name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// metricNames greps the daemon source for metric-name string content.
// The names live in string literals (plain and inside Fprintf format
// strings), so a textual scan of the .go files sees every family the
// daemon can render.
func metricNames(dir string) (map[string]bool, error) {
	out := make(map[string]bool)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, tok := range metricRe.FindAllString(string(raw), -1) {
			out[tok] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sqlcheck_* metric names found under %s", dir)
	}
	return out, nil
}

// knownMetric accepts an exact metric name, or a family prefix ending
// in '_' (how the docs write sqlcheck_report_cache_* et al.). The
// exposition suffixes _bucket/_sum/_count on histogram families are
// present in the daemon source itself, so they need no special case.
func knownMetric(tok string, metrics map[string]bool) bool {
	if metrics[tok] {
		return true
	}
	if strings.HasSuffix(tok, "_") {
		for name := range metrics {
			if strings.HasPrefix(name, tok) {
				return true
			}
		}
	}
	return false
}
