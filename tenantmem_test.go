package sqlcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sqlcheck/internal/corpus"
)

// liveHeap returns the live heap bytes after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestRegisteredDatabaseDropsFixtureText registers fixtures whose
// scripts carry a multi-MiB comment, drops every string the caller
// held, and requires the retained heap to grow by far less than the
// padding: a registered tenant keeps its data, not the text that
// created it. Table, column and index names are substrings of that
// text until storage copies them. A one-byte page budget spills every
// row page, because resident rows' string cells still alias their
// INSERT's text (ROADMAP, memory item).
func TestRegisteredDatabaseDropsFixtureText(t *testing.T) {
	const tenants, pad = 4, 4 << 20
	checker := New(Options{PageCacheBytes: 1})
	defer checker.Close()
	before := liveHeap()
	for i := range tenants {
		script := "/* " + strings.Repeat("x", pad) + " */\n" + corpus.TenantFixture(400, 100, uint64(i+1))
		db := NewDatabase(fmt.Sprintf("fixture%d", i))
		if err := db.ExecScript(script); err != nil {
			t.Fatal(err)
		}
		if err := checker.RegisterDatabase(fmt.Sprintf("tenant%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - before
	t.Logf("retained heap grew %.2f MiB over %d fixtures padded with %d MiB each",
		float64(grown)/(1<<20), tenants, pad>>20)
	if grown > pad/2 {
		t.Errorf("registering %d padded fixtures retained %.2f MiB, want < %.2f MiB: a tenant keeps its script alive",
			tenants, float64(grown)/(1<<20), float64(pad/2)/(1<<20))
	}
	if got := len(checker.RegisteredDatabases()); got != tenants {
		t.Fatalf("registered %d tenants, want %d", got, tenants)
	}
}
