package sqlcheck

// The larger-than-RAM capacity gate, run by the CI bounded-rss job
// with SQLCHECK_BOUNDED_RSS=1 (and a GOMEMLIMIT well below the
// fixture total): a durable registry loaded with several times its
// page-cache budget of fixture data, and checkpointed, must stay
// within a bounded peak RSS while every tenant still analyzes
// byte-identically to an all-resident baseline. Without spilling, the
// fixture data alone exceeds the RSS ceiling, and a checkpoint that
// held every tenant's encoding at once would too, so the test fails
// structurally — not flakily — if pages stop leaving the heap or the
// checkpoint stops streaming.

import (
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqlcheck/internal/storage"
)

const (
	// rssTenants × rssRowsPerTenant rows of ~rssPayload bytes ≈ 8 MiB
	// of row data per tenant, ~128 MiB total — 8× the page-cache
	// budget below and well above the RSS ceiling.
	rssTenants       = 16
	rssRowsPerTenant = 8192
	rssBudget        = 16 << 20
	// rssCeilingMB bounds VmHWM: page-cache budget plus the Go
	// runtime, the test binary, the golden corpus pass, one tenant's
	// checkpoint encoding, and GC lag from building each tenant
	// before it spills. The all-resident failure mode peaks past the
	// fixture total (~190 MiB measured), so the ceiling separates the
	// two regimes with margin on both sides.
	rssCeilingMB = 120
)

// rssTenantDB builds one tenant's database at the storage layer
// (bypassing SQL parsing — fixture construction is not under test).
// Every tenant is identical, so one all-resident copy is the
// byte-equality baseline for all sixteen.
func rssTenantDB(name string) *Database {
	db := NewDatabase(name)
	db.MustExec(`CREATE TABLE users (id INT PRIMARY KEY, name TEXT, role TEXT, bio TEXT)`)
	db.MustExec(`CREATE INDEX users_role ON users (role)`)
	tab := db.inner.Table("users")
	roles := []string{"admin", "user", "user", "user"}
	pad := strings.Repeat("larger-than-ram payload ", 40) // ~960 B
	for i := 0; i < rssRowsPerTenant; i++ {
		tab.MustInsert(storage.Int(int64(i)),
			storage.Str(fmt.Sprintf("user-%d", i)),
			storage.Str(roles[i%len(roles)]),
			storage.Str(fmt.Sprintf("writes go and sql no %d %s", i, pad)))
	}
	return db
}

// vmHWM reads the process's peak resident set size from
// /proc/self/status, in KiB.
func vmHWM(t *testing.T) int64 {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status on this platform: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("parsing VmHWM %q: %v", line, err)
			}
			return kb
		}
	}
	t.Fatal("VmHWM not found in /proc/self/status")
	return 0
}

func TestBoundedRSSLargerThanRAMRegistry(t *testing.T) {
	if os.Getenv("SQLCHECK_BOUNDED_RSS") == "" {
		t.Skip("set SQLCHECK_BOUNDED_RSS=1 to run the capacity gate (loads ~128 MiB of fixtures)")
	}
	if os.Getenv("GOMEMLIMIT") == "" {
		// The CI job sets GOMEMLIMIT; standalone runs get an equivalent
		// soft limit so GC keeps up with tenant-build churn.
		debug.SetMemoryLimit(96 << 20)
	}

	// All-resident baseline from a single tenant copy: every tenant is
	// identical, so one report keys the byte-equality check for all.
	cold := New(Options{Concurrency: 2})
	baselineDB := rssTenantDB("baseline")
	baseline := reportJSON(t, cold, Workload{SQL: raceWorkloadSQL, DB: baselineDB})
	baselineDB = nil
	_ = baselineDB

	checker, err := Open(Options{Concurrency: 2, PageCacheBytes: rssBudget, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checker.Close() })

	// Build and register tenant by tenant: adoption spills each one
	// down to the shared budget before the next is built, so the peak
	// never holds more than one tenant plus the budget.
	for i := 0; i < rssTenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if err := checker.RegisterDatabase(name, rssTenantDB(name)); err != nil {
			t.Fatal(err)
		}
	}
	pc := checker.Metrics().PageCache
	if pc == nil || pc.SpilledPages == 0 {
		t.Fatalf("registry under budget pressure must hold spilled pages: %+v", pc)
	}
	if pc.SpillErrors != 0 {
		t.Fatalf("spill writes failed: %+v", pc)
	}
	t.Logf("after load: %d pages spilled, %d resident bytes (budget %d), %d spill bytes on disk, peak RSS %d MiB",
		pc.SpilledPages, pc.ResidentBytes, pc.BudgetBytes, pc.SpillBytes, vmHWM(t)>>10)

	// A checkpoint encodes every tenant, faulting each one's spilled
	// pages back through the budget; it must hold one tenant's
	// encoding at a time, not the registry's.
	if err := checker.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Every tenant analyzes byte-identically to the all-resident
	// baseline, faulting its pages through the shared budget.
	for i := 0; i < rssTenants; i++ {
		got := reportJSON(t, checker, Workload{SQL: raceWorkloadSQL, DBName: fmt.Sprintf("tenant-%d", i)})
		if string(got) != string(baseline) {
			t.Fatalf("tenant-%d: spill-managed report differs from all-resident baseline\nspill:    %s\nresident: %s",
				i, got, baseline)
		}
	}

	// The golden corpus still passes under the same memory pressure.
	names, ws := goldenWorkloads(t)
	coldReports, err := cold.CheckWorkloads(t.Context(), ws)
	if err != nil {
		t.Fatal(err)
	}
	pressured, err := checker.CheckWorkloads(t.Context(), ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coldReports {
		var want, got []string
		for _, f := range coldReports[i].Findings {
			want = append(want, findingKey(f))
		}
		for _, f := range pressured[i].Findings {
			got = append(got, findingKey(f))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: findings differ under memory pressure\ngot:  %v\nwant: %v", names[i], got, want)
		}
	}

	if peakKB := vmHWM(t); peakKB > rssCeilingMB<<10 {
		t.Fatalf("peak RSS %d MiB exceeds the %d MiB ceiling (budget %d MiB + slack): pages are not leaving the heap, or the checkpoint held the registry",
			peakKB>>10, rssCeilingMB, rssBudget>>20)
	} else {
		t.Logf("peak RSS %d MiB (ceiling %d MiB, page-cache budget %d MiB)", peakKB>>10, rssCeilingMB, rssBudget>>20)
	}
}
