package sqlcheck

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// registerRaceRuns numbers this test's runs within one process
// (-count=N): rule IDs are process-global and must not repeat.
var registerRaceRuns atomic.Int64

// TestRegisterRuleWhileChecking registers rules that carry fix
// guidance while another goroutine keeps checking, as a serving daemon
// may: every batch re-reads the live catalog, and every report looks
// up each finding's guidance. Run under -race (`make test`), it fails
// if the guidance is published anywhere but on the rule itself.
func TestRegisterRuleWhileChecking(t *testing.T) {
	run := registerRaceRuns.Add(1)
	c := New()
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var checkErr error
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			// A never-repeated script, so every check builds a report
			// with findings.
			_, err := c.CheckWorkloads(context.Background(), []Workload{{
				SQL:           fmt.Sprintf("SELECT * FROM orders_%d ORDER BY RAND()", i),
				NoReportCache: true,
			}})
			if err != nil {
				checkErr = err
				return
			}
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	select {
	case <-started:
	case <-done:
	}
	for i := 0; i < 50; i++ {
		err := RegisterRule(CustomRule{
			ID:       fmt.Sprintf("register-race-%d-%d", run, i),
			Name:     "Register race probe",
			Kinds:    []string{"DROP INDEX"},
			Match:    func(string) bool { return false },
			Guidance: "never shown: the probe never fires",
		})
		if err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-done
	if checkErr != nil {
		t.Fatal(checkErr)
	}
}
