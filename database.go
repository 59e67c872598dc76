package sqlcheck

import (
	"fmt"
	"iter"

	"sqlcheck/internal/exec"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

// Database is the embedded relational engine: an in-memory SQL
// database with primary/foreign keys, CHECK constraints, B+tree
// indexes, and a cost-modeled executor. It serves two roles: the
// data-analysis target for CheckApplication (paper §4.2) and the
// measurement substrate behind the benchmark harness.
type Database struct {
	inner *storage.Database
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{inner: storage.NewDatabase(name)}
}

// innerDB unwraps a possibly-nil public handle.
func innerDB(db *Database) *storage.Database {
	if db == nil {
		return nil
	}
	return db.inner
}

// Result is the outcome of executing one statement.
type Result struct {
	// Columns names the SELECT output columns.
	Columns []string
	// Rows holds SELECT output values rendered as strings; NULL
	// renders as "NULL".
	Rows [][]string
	// Affected counts rows changed by DML.
	Affected int
	// Plan lists the access paths the executor chose.
	Plan []string
}

// Snapshot returns a frozen copy-on-write view of the database:
// profiling-safe, statement-atomic, and unaffected by statements
// executed on the live handle afterwards. Snapshots are cheap (they
// share row pages with the live tables until a writer mutates them)
// and read-only: DML against a snapshot fails.
func (d *Database) Snapshot() *Database {
	return &Database{inner: d.inner.Snapshot()}
}

// Exec parses and executes one SQL statement (DDL, DML, or SELECT).
// Statements serialize on a per-database writer lock, so concurrent
// Exec calls are safe and snapshots observe statement-atomic states.
func (d *Database) Exec(sql string) (*Result, error) {
	res, err := exec.Run(d.inner, parser.Parse(sql))
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: res.Cols, Affected: res.Affected, Plan: res.Plan}
	for _, row := range res.Rows {
		srow := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				srow[i] = "NULL"
			} else {
				srow[i] = v.String()
			}
		}
		out.Rows = append(out.Rows, srow)
	}
	return out, nil
}

// MustExec executes a statement and panics on error; intended for test
// and example setup code.
func (d *Database) MustExec(sql string) *Result {
	res, err := d.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("sqlcheck: MustExec(%q): %v", sql, err))
	}
	return res
}

// parseAhead bounds how many parsed statements ExecScript's parser
// goroutine may hold ahead of the executor. The bound caps the ASTs
// alive beyond the one executing: a fixture's multi-row INSERT parses
// into far more memory than its text, so an unbounded producer would
// hold the whole script's ASTs whenever execution is the slower side.
const parseAhead = 4

// parsed is one message from ExecScript's parser goroutine: a
// statement, or the value of a panic raised while parsing.
type parsed struct {
	stmt     sqlast.Statement
	panicked any
}

// ExecScript executes each statement of a multi-statement script in
// order, stopping at the first error. A goroutine parses ahead of the
// executor, so on a multi-core host the script's parsing overlaps its
// execution. Before ExecScript returns, that goroutine has stopped and
// its channel is drained, whether the script succeeded, failed, or
// panicked; a panic while parsing is re-raised here, on the caller's
// goroutine.
func (d *Database) ExecScript(sql string) error {
	return d.execStatements(parser.Statements(sql))
}

// execStatements is ExecScript over any statement sequence; tests
// drive it with sequences that fail or panic on demand.
func (d *Database) execStatements(seq iter.Seq[sqlast.Statement]) error {
	stmts := make(chan parsed, parseAhead)
	stop := make(chan struct{})
	go produce(seq, stmts, stop)
	defer func() {
		close(stop)
		for range stmts {
		}
	}()
	n := 0
	for p := range stmts {
		if p.panicked != nil {
			panic(p.panicked)
		}
		n++
		if _, err := exec.Run(d.inner, p.stmt); err != nil {
			return fmt.Errorf("sqlcheck: statement %d %q: %w", n, firstLine(p.stmt.Raw()), err)
		}
	}
	return nil
}

// produce is ExecScript's parser goroutine: it sends each statement of
// seq on out until seq ends or stop closes, then closes out.
func produce(seq iter.Seq[sqlast.Statement], out chan<- parsed, stop <-chan struct{}) {
	defer close(out)
	defer func() {
		if r := recover(); r != nil {
			select {
			case out <- parsed{panicked: r}:
			case <-stop:
			}
		}
	}()
	for stmt := range seq {
		select {
		case out <- parsed{stmt: stmt}:
		case <-stop:
			return
		}
	}
}

// Tables returns the table names in creation order.
func (d *Database) Tables() []string {
	var out []string
	for _, t := range d.inner.Tables() {
		out = append(out, t.Name)
	}
	return out
}

// RowCount returns the number of live rows in a table (-1 if the
// table does not exist).
func (d *Database) RowCount(table string) int {
	t := d.inner.Table(table)
	if t == nil {
		return -1
	}
	return t.Len()
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	if len(s) > 80 {
		return s[:80]
	}
	return s
}
