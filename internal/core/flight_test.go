package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// panicReporter is a Reporter whose report build panics on any script
// carrying its marker and otherwise reports the finding count.
type panicReporter struct{}

func (panicReporter) Report(res *Result) (any, int64) {
	for _, text := range res.Script.Texts() {
		if strings.Contains(text, "REPORT_PANIC") {
			panic("deliberate report panic")
		}
	}
	return len(res.Findings), 64
}

// assertNoOpenFlights fails unless every flight has landed — which it
// must have whenever no DetectWorkloads call is running.
func assertNoOpenFlights(t *testing.T, e *Engine) {
	t.Helper()
	if n := e.openFlights(); n != 0 {
		t.Fatalf("%d flights still open after DetectWorkloads returned", n)
	}
}

// TestReporterPanicFailsItsFlight: a Reporter panics on the pool
// goroutine that runs it, out of reach of any caller's recover. The
// engine must recover it into ErrRulePanic for that workload and the
// same-batch duplicates that joined its flight, count one rule panic,
// serve the batch-mates, and land every flight.
func TestReporterPanicFailsItsFlight(t *testing.T) {
	opts := DefaultOptions()
	opts.Reporter = panicReporter{}
	eng := NewEngine(opts, 2)
	bad := "SELECT * FROM t WHERE note = 'REPORT_PANIC' ORDER BY RAND()"
	ws := []Workload{
		{SQL: bad},
		{SQL: "SELECT * FROM t ORDER BY RAND()"},
		{SQL: bad},
		{SQL: "SELECT a FROM u WHERE b LIKE '%x'"},
		{SQL: bad},
	}
	got, err := eng.DetectWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if !errors.Is(got[i].Err, ErrRulePanic) || got[i].Report != nil {
			t.Errorf("workload %d: err = %v, report = %v; want ErrRulePanic and no report", i, got[i].Err, got[i].Report)
		}
	}
	for _, i := range []int{1, 3} {
		if got[i].Err != nil || got[i].Report != len(got[i].Findings) || len(got[i].Findings) == 0 {
			t.Errorf("workload %d: err = %v, report = %v, %d findings; want its finding count",
				i, got[i].Err, got[i].Report, len(got[i].Findings))
		}
	}
	if n := eng.Metrics().RulePanics; n != 1 {
		t.Errorf("rule panics = %d, want 1 (the leader's; joiners share it)", n)
	}
	assertNoOpenFlights(t, eng)
}
