package storage

// Copy-on-write snapshots. A snapshot is a frozen, consistent view of
// a table (or a whole database) that shares row pages with the live
// table until a writer mutates them: taking one costs a walk over the
// page-pointer slice, not a data copy. Snapshots exist so analysis —
// data profiling, schema reflection — can read a stable view while
// DML continues on the original handle.
//
// Concurrency contract:
//
//   - Writers (every statement executed through internal/exec, which
//     takes the database writer lock) and Snapshot are mutually
//     exclusive, so a snapshot observes statement-atomic states.
//   - Any number of snapshot readers run concurrently with writers:
//     a writer copies a shared page before its first mutation, so the
//     pages a snapshot holds are never written again.
//   - Snapshots are read-only: DML and DDL against them return
//     ErrFrozen. Reading them through ScanReadOnly, Len, Reflect, and
//     the profiler is always safe; executing queries against a
//     snapshot (which walks shared B+tree indexes) is safe only while
//     the source database is quiesced.

// Snapshot returns a frozen copy-on-write view of the table. When the
// table belongs to a database, the database writer lock serializes
// the snapshot against in-flight statements.
func (t *Table) Snapshot() *Table {
	if t.db != nil {
		t.db.mu.Lock()
		defer t.db.mu.Unlock()
	}
	return t.snapshotLocked()
}

// snapshotLocked captures the table under an already-held writer
// lock: it marks every page shared and copies the metadata slice
// headers, so later DML on the live table copies pages instead of
// mutating the view.
func (t *Table) snapshotLocked() *Table {
	// A frozen table's pages are already shared and can never be
	// written again, so re-marking them is unnecessary — and would be
	// a data race, since a snapshot's own lock does not exclude the
	// source database's writers.
	if !t.frozen {
		for _, p := range t.pages {
			p.shared = true
		}
	}
	return &Table{
		Name:    t.Name,
		Cols:    append([]ColumnDef(nil), t.Cols...),
		colIdx:  t.colIdx, // built once in NewTable, never mutated
		pages:   append([]*rowPage(nil), t.pages...),
		slots:   t.slots,
		live:    t.live,
		frozen:  true,
		pk:      t.pk,
		pkCols:  t.pkCols,
		indexes: append([]*Index(nil), t.indexes...),
		fks:     append([]ForeignKey(nil), t.fks...),
		checks:  append([]CheckInList(nil), t.checks...),
		pool:    newBufferPool(0),
		// The snapshot shares the source's page-cache management:
		// shared frames are already adopted (pages spill and fault as
		// one identity whichever handle reads them).
		cache: t.cache,
		// Identity and version transfer verbatim: the snapshot is the
		// created table's row state at this exact version, which is what
		// lets profile memoization key on (ID, Version) and treat a
		// snapshot hit as a hit on the source table.
		id:      t.id,
		version: t.version,
	}
}

// Snapshot returns a frozen copy-on-write view of the whole database:
// every table snapshotted atomically under the writer lock, in
// creation order, so cross-table invariants (foreign keys already
// enforced on the live side) hold in the view.
func (db *Database) Snapshot() *Database {
	db.mu.Lock()
	defer db.mu.Unlock()
	// The source's name is already storage's own copy.
	out := &Database{Name: db.Name, tables: make(map[string]*Table, len(db.order))}
	for _, k := range db.order {
		out.AddTable(db.tables[k].snapshotLocked())
	}
	out.frozen = true
	// The view keeps the source's identity, catalog version, and
	// durability watermark (AddTable advanced the version while
	// building it). Copying durableLSN here, under the same lock
	// hold that froze the pages, is what makes a snapshot a valid
	// checkpoint unit: the watermark names exactly the WAL prefix this
	// state reflects.
	out.id = db.id
	out.version = db.version
	out.durableLSN = db.durableLSN
	return out
}
