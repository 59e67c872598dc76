package sqlcheck

// Cancellation leak suite (run under -race by `make test`): a shed or
// timed-out request must release everything it holds — worker-pool
// slots, singleflight flights, goroutines — promptly, and the checker
// must serve the next request as if the cancellation never happened.
// The invariants are asserted through Metrics() deltas: pool InUse
// and Coalesce.OpenFlights return to zero, the goroutine count
// returns to its pre-test level, and a rerun of the same work
// succeeds.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The blocking rule for deterministic mid-pipeline cancellation: it
// parks rule evaluation (stage 4) on cancelGate until the test opens
// it, so the test can cancel a context while the pipeline is provably
// mid-workload. Inert without its marker; the registry is
// process-global, so it is registered once.
var (
	cancelRuleOnce sync.Once
	cancelGateMu   sync.Mutex
	cancelGateFn   func()
)

func setCancelGate(fn func()) {
	cancelGateMu.Lock()
	cancelGateFn = fn
	cancelGateMu.Unlock()
}

func registerCancelRule(t *testing.T) {
	t.Helper()
	cancelRuleOnce.Do(func() {
		err := RegisterRule(CustomRule{
			ID:   "test-cancel-gate",
			Name: "Test cancellation gate",
			Match: func(sql string) bool {
				if !strings.Contains(sql, "CANCEL_GATE_MARKER") {
					return false
				}
				cancelGateMu.Lock()
				fn := cancelGateFn
				cancelGateMu.Unlock()
				if fn != nil {
					fn()
				}
				return false
			},
		})
		if err != nil {
			panic(err)
		}
	})
}

// assertDrained waits for the checker's pool and flight registry to
// return to idle and fails the test if they do not — the leak
// assertion shared by every cancellation scenario.
func assertDrained(t *testing.T, c *Checker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := c.Metrics()
		if m.Pool.InUse == 0 && m.Coalesce.OpenFlights == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked after cancellation: pool in_use=%d open_flights=%d",
				m.Pool.InUse, m.Coalesce.OpenFlights)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitEvent returns once cond holds, or after five seconds, yielding
// the processor between probes rather than sleeping.
func awaitEvent(cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// assertGoroutinesSettle fails if the goroutine count stays above its
// pre-test baseline (cancellation must not strand pipeline workers).
func assertGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A small tolerance absorbs runtime background goroutines.
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bigProfileDB builds a database large enough that table profiling
// spans many cancellation checkpoints.
func bigProfileDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase("cancelprof")
	db.MustExec("CREATE TABLE readings (id INT PRIMARY KEY, sensor VARCHAR(64), val FLOAT, tags TEXT)")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		sb.Reset()
		fmt.Fprintf(&sb, "INSERT INTO readings VALUES (%d, 'sensor-%d', %d.5, 'a,b,c,%d')", i, i%37, i%900, i)
		db.MustExec(sb.String())
	}
	return db
}

// TestCancelMidProfile cancels a database-attached workload while the
// engine is busy (the profiling stage checks the context every few
// thousand rows) and asserts nothing leaks and the checker still
// serves.
func TestCancelMidProfile(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := New(Options{Concurrency: 4})
	db := bigProfileDB(t, 30000)
	sql := "SELECT sensor, val FROM readings WHERE tags = 'x'"

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.CheckWorkloads(ctx, []Workload{{SQL: sql, DB: db}})
		errCh <- err
	}()
	// Cancel as soon as the engine demonstrably started working.
	deadline := time.Now().Add(5 * time.Second)
	for c.Metrics().Pool.InUse == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	err := <-errCh
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil (finished first) or context.Canceled", err)
	}

	assertDrained(t, c)
	assertGoroutinesSettle(t, baseline)

	// The checker is unharmed: the same workload now completes, and
	// with findings over the profiled data.
	reports, err := c.CheckWorkloads(context.Background(), []Workload{{SQL: sql, DB: db}})
	if err != nil {
		t.Fatalf("post-cancel check: %v", err)
	}
	if reports[0] == nil || reports[0].Statements == 0 {
		t.Fatalf("post-cancel report empty")
	}
}

// TestCancelMidCoalescedBatch cancels a duplicate-heavy batch while
// its coalescing leader is provably mid-pipeline, then asserts the
// singleflight registry is empty (the abandoned flight was released,
// not leaked) and an identical batch still serves.
func TestCancelMidCoalescedBatch(t *testing.T) {
	registerCancelRule(t)
	baseline := runtime.NumGoroutine()
	c := New(Options{Concurrency: 4})

	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	var blocked atomic.Bool
	blocked.Store(true)
	setCancelGate(func() {
		if blocked.Load() {
			entered <- struct{}{}
			<-gate
		}
	})
	defer setCancelGate(nil)

	sql := "SELECT c1 FROM t WHERE note = 'CANCEL_GATE_MARKER batch'"
	batch := make([]Workload, 8)
	for i := range batch {
		batch[i] = Workload{SQL: sql}
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.CheckWorkloads(ctx, batch)
		errCh <- err
	}()
	<-entered // the coalescing leader is inside stage 4
	cancel()
	blocked.Store(false)
	close(gate)
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	assertDrained(t, c)
	assertGoroutinesSettle(t, baseline)

	// Rerun the identical batch: every slot serves, duplicates
	// coalesce or memoize as usual.
	reports, err := c.CheckWorkloads(context.Background(), batch)
	if err != nil {
		t.Fatalf("post-cancel batch: %v", err)
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("post-cancel report %d nil", i)
		}
	}
}

// TestTimeoutMidBatch is the deadline variant: the request context
// expires server-side while the pipeline is gated, and the engine
// unwinds without leaks.
func TestTimeoutMidBatch(t *testing.T) {
	registerCancelRule(t)
	c := New(Options{Concurrency: 2})

	setCancelGate(func() { time.Sleep(150 * time.Millisecond) })
	defer setCancelGate(nil)

	sql := "SELECT c2 FROM t WHERE note = 'CANCEL_GATE_MARKER timeout'"
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.CheckWorkloads(ctx, []Workload{{SQL: sql}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertDrained(t, c)

	setCancelGate(nil)
	if _, err := c.CheckWorkloads(context.Background(), []Workload{{SQL: sql}}); err != nil {
		t.Fatalf("post-timeout check: %v", err)
	}
}

// TestCancelLeaderSingleflightHandoff cancels a cross-batch
// singleflight leader while a second batch waits on its flight: the
// waiter must retry for leadership and complete (never inherit the
// leader's cancellation), and the registry must end empty.
func TestCancelLeaderSingleflightHandoff(t *testing.T) {
	registerCancelRule(t)
	c := New(Options{Concurrency: 4})

	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	var gated atomic.Int64
	setCancelGate(func() {
		// Gate only the first pass (the doomed leader); the waiter's
		// retry run must flow through.
		if gated.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
	})
	defer setCancelGate(nil)

	sql := "SELECT c3 FROM t WHERE note = 'CANCEL_GATE_MARKER handoff'"
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.CheckWorkloads(leaderCtx, []Workload{{SQL: sql}})
		leaderErr <- err
	}()
	<-entered // leader is mid-pipeline, its flight registered

	waiterRes := make(chan error, 1)
	go func() {
		_, err := c.CheckWorkloads(context.Background(), []Workload{{SQL: sql}})
		waiterRes <- err
	}()
	// Let the waiter reach the flight — its admission miss comes just
	// before it joins — then kill the leader.
	awaitEvent(func() bool { return c.Metrics().ReportCache.Misses >= 2 })
	cancelLeader()
	close(gate)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-waiterRes; err != nil {
		t.Fatalf("waiter err = %v, want success after retrying for leadership", err)
	}
	assertDrained(t, c)
}

// TestMemoHitTakesNoSlot: a report-cache hit is served at admission
// and holds no pool slot, so it never queues behind a cold analysis —
// here a cold workload gated in stage 4 holding the only slot of a
// Concurrency: 1 checker. Neither does a duplicate that joined a cold
// analysis's flight: while it waits, a different cold request still
// gets the second slot of a Concurrency: 2 checker.
func TestMemoHitTakesNoSlot(t *testing.T) {
	registerCancelRule(t)
	c := New(Options{Concurrency: 1})
	primed := "SELECT c4 FROM t WHERE note = 'primed'"
	if _, err := c.CheckSQL(primed); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	var gated atomic.Int64
	setCancelGate(func() {
		if gated.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
	})
	defer setCancelGate(nil)
	coldErr := make(chan error, 1)
	go func() {
		_, err := c.CheckSQL("SELECT c4 FROM t WHERE note = 'CANCEL_GATE_MARKER memo'")
		coldErr <- err
	}()
	<-entered // the cold workload holds the only slot, inside stage 4

	hitDone := make(chan struct{})
	var hitErr error
	go func() {
		defer close(hitDone)
		_, hitErr = c.CheckSQL(primed)
	}()
	select {
	case <-hitDone:
	case <-time.After(5 * time.Second):
		t.Error("report-cache hit waited for the pool slot a cold analysis holds")
	}
	close(gate)
	<-hitDone
	if hitErr != nil {
		t.Fatalf("hit: %v", hitErr)
	}
	if err := <-coldErr; err != nil {
		t.Fatalf("cold check: %v", err)
	}
	if m := c.Metrics(); m.ReportCache.Hits != 1 {
		t.Errorf("report cache hits = %d, want 1", m.ReportCache.Hits)
	}
	assertDrained(t, c)

	// The joiner case.
	c = New(Options{Concurrency: 2})
	gated.Store(0)
	gate = make(chan struct{})
	leaderSQL := "SELECT c5 FROM t WHERE note = 'CANCEL_GATE_MARKER join'"
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.CheckSQL(leaderSQL)
		leaderErr <- err
	}()
	<-entered // the leader holds one slot, inside stage 4
	joinErr := make(chan error, 1)
	go func() {
		_, err := c.CheckSQL(leaderSQL)
		joinErr <- err
	}()
	// The joiner's admission miss comes just before it joins.
	awaitEvent(func() bool { return c.Metrics().ReportCache.Misses >= 2 })
	otherErr := make(chan error, 1)
	go func() {
		_, err := c.CheckSQL("SELECT c6 FROM t WHERE note = 'other'")
		otherErr <- err
	}()
	select {
	case err := <-otherErr:
		if err != nil {
			t.Fatalf("other cold check: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a cold request waited for a pool slot while a flight joiner idled")
	}
	close(gate)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if m := c.Metrics(); m.Coalesce.Singleflight != 1 {
		t.Errorf("singleflight = %d, want 1 (the joiner)", m.Coalesce.Singleflight)
	}
	assertDrained(t, c)
}
