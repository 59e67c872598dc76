package sqlcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/sqlast"
)

// waitGoroutines fails t unless the goroutine count falls back to base.
// A goroutine that has closed its channel may still be unwinding, so
// the count is polled briefly rather than read once.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after ExecScript, want <= %d (parser goroutine leaked)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecScriptStopsAtFirstError: ExecScript parses ahead of the
// executor, yet applies exactly the statements before the failing one,
// names the failing statement, and leaves no parser goroutine behind.
func TestExecScriptStopsAtFirstError(t *testing.T) {
	var b strings.Builder
	b.WriteString("CREATE TABLE t (id INT PRIMARY KEY, v TEXT);\n")
	for i := 2; i <= 200; i++ {
		id := i - 1
		if i == 50 {
			id = 1 // duplicate primary key: statement 50 fails
		}
		fmt.Fprintf(&b, "INSERT INTO t VALUES (%d, 'statement %d');\n", id, i)
	}
	base := runtime.NumGoroutine()
	db := NewDatabase("pipeline")
	err := db.ExecScript(b.String())
	if err == nil || !strings.Contains(err.Error(), "statement 50 ") || !strings.Contains(err.Error(), "'statement 50'") {
		t.Fatalf("ExecScript error = %v, want one naming statement 50", err)
	}
	waitGoroutines(t, base)
	// Statements 2–49 inserted ids 1–48; none after statement 50 ran.
	res, err := db.Exec("SELECT COUNT(*), MIN(id), MAX(id) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Rows[0], " "); got != "48 1 48" {
		t.Errorf("rows after failed script: count, min, max = %s; want 48 1 48", got)
	}
}

// TestExecScriptReraisesParsePanic: a panic on the parser goroutine
// surfaces on the caller's goroutine, where the daemon's panic
// middleware can recover it, and the statements parsed before it have
// executed in order.
func TestExecScriptReraisesParsePanic(t *testing.T) {
	db := NewDatabase("panic")
	seq := func(yield func(sqlast.Statement) bool) {
		for _, stmt := range []string{"CREATE TABLE t (id INT)", "INSERT INTO t VALUES (1)"} {
			if !yield(parser.Parse(stmt)) {
				return
			}
		}
		panic("parser bug")
	}
	base := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		_ = db.execStatements(seq)
		return nil
	}()
	if got != "parser bug" {
		t.Fatalf("recovered %v, want the parser goroutine's panic", got)
	}
	waitGoroutines(t, base)
	if n := db.RowCount("t"); n != 1 {
		t.Errorf("rows = %d, want 1: statements before the panic run", n)
	}
}
