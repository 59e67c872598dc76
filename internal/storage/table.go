package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"sqlcheck/internal/btree"
	"sqlcheck/internal/schema"
)

// Constraint violation errors returned by DML operations.
var (
	ErrNotNull      = errors.New("storage: NOT NULL constraint violated")
	ErrDuplicateKey = errors.New("storage: duplicate key violates unique constraint")
	ErrForeignKey   = errors.New("storage: foreign key constraint violated")
	ErrCheck        = errors.New("storage: CHECK constraint violated")
	ErrArity        = errors.New("storage: row arity does not match table columns")
	ErrNoRow        = errors.New("storage: row id not found")
	ErrRestrict     = errors.New("storage: row is referenced by another table")
	ErrFrozen       = errors.New("storage: table snapshot is read-only")
)

// ColumnDef declares one column of a storage table.
type ColumnDef struct {
	Name    string
	Class   schema.TypeClass
	NotNull bool
}

// Index is a secondary index over one or more columns, implemented as
// a B+tree keyed by the encoded column values.
type Index struct {
	Name   string
	Cols   []int // column ordinals
	Unique bool
	tree   *btree.Tree
	// kinds counts the index's postings by the kind of their leading
	// column's value (see OnlyKind).
	kinds   [KindTime + 1]int
	touches int64 // maintenance operation count, for stats
}

// add inserts row r's posting under its encoded key.
func (ix *Index) add(key string, r Row, id int64) {
	ix.tree.Insert(key, id)
	ix.kinds[r[ix.Cols[0]].Kind]++
	ix.touches++
}

// remove deletes row r's posting from under its encoded key.
func (ix *Index) remove(key string, r Row, id int64) {
	if ix.tree.Delete(key, id) {
		ix.kinds[r[ix.Cols[0]].Kind]--
	}
	ix.touches++
}

// OnlyKind reports whether every non-NULL value of the index's leading
// column has kind k. Keys sort in value order only within one kind
// (EncodeKey), and a scan compares across kinds (Compare, Equal), so
// an executor answers a comparison against a literal of kind k from
// the index only when OnlyKind(k) holds.
func (ix *Index) OnlyKind(k ValueKind) bool {
	for kind, n := range ix.kinds {
		if n > 0 && ValueKind(kind) != k && ValueKind(kind) != KindNull {
			return false
		}
	}
	return true
}

// Tree exposes the underlying B+tree for ordered traversal by the
// executor.
func (ix *Index) Tree() *btree.Tree { return ix.tree }

func (ix *Index) keyFor(r Row) string {
	if len(ix.Cols) == 1 {
		return EncodeKey(r[ix.Cols[0]])
	}
	return EncodeKey(ix.values(r)...)
}

// values returns row r's values of the index columns.
func (ix *Index) values(r Row) []Value {
	vals := make([]Value, len(ix.Cols))
	for i, c := range ix.Cols {
		vals[i] = r[c]
	}
	return vals
}

// ForeignKey enforces that values in Cols exist in RefTable.RefCols.
type ForeignKey struct {
	Name     string
	Cols     []int
	RefTable string
	RefCols  []string
	OnDelete string // "", "CASCADE", "RESTRICT", "SET NULL"
}

// CheckInList is a domain constraint restricting a column to a fixed
// value set — the storage-level realization of CHECK (col IN (...)).
type CheckInList struct {
	Name    string
	Col     int
	Allowed map[string]bool
}

// rowPage is the unit of copy-on-write sharing between a live table
// and its snapshots: a fixed block of PageRows row slots, aligned with
// the simulated I/O pages. A snapshot marks every page shared and
// copies only the page-pointer slice; a writer copies a shared page
// before its first mutation, so the snapshot keeps the frozen original
// while DML proceeds on a private copy.
//
// A page is also the frame unit of the spill-capable page cache
// (pagecache.go): unmanaged pages (the default — inline, caller-owned
// databases) keep their slot array resident forever and are read
// directly, while pages adopted by a PageCache may have the array
// dropped to disk and faulted back on demand. The cache and rows
// pointers are atomics so adoption can race with in-flight readers:
// a reader that still observes cache == nil also observes a non-nil
// resident array (eviction is ordered after cache publication), and
// an array captured before an eviction stays valid — COW freezes
// shared pages and the single-writer lock covers private ones.
type rowPage struct {
	// shared is set (under the database writer lock) when at least one
	// snapshot captured the page; writers must copy before mutating.
	shared bool
	// cache, when set, owns this page's residency; rows is nil while
	// the page is spilled. Slot = row id % PageRows; nil slot =
	// deleted.
	cache atomic.Pointer[PageCache]
	rows  atomic.Pointer[[PageRows]Row]
	// Frame bookkeeping, all guarded by cache.mu once managed.
	tid        uint64 // owning table's origin ID: spill-file routing
	state      uint8  // frameResident / frameSpilling / ...
	pins       int32  // > 0 blocks eviction
	dirty      bool   // resident content newer than disk record
	noSpill    bool   // parked resident after a spill failure
	inLRU      bool
	used       int32 // high-water allocated slot count
	bytes      int64 // accounted resident heap bytes
	disk       *diskRef
	prev, next *rowPage
}

// newRowPage builds an unmanaged resident page.
func newRowPage() *rowPage {
	p := &rowPage{}
	p.rows.Store(new([PageRows]Row))
	return p
}

// view returns the page's slot array for reading, pinning the frame
// when the page is cache-managed; the caller must pass the returned
// cache to unview when done. The retry handles adoption racing with
// the two loads: observing a nil array implies the cache pointer is
// now visible.
func (p *rowPage) view() (*[PageRows]Row, *PageCache) {
	for {
		if c := p.cache.Load(); c != nil {
			return c.pin(p), c
		}
		if rows := p.rows.Load(); rows != nil {
			return rows, nil
		}
	}
}

// unview releases a view; c is the second return of view.
func (p *rowPage) unview(c *PageCache) {
	if c != nil {
		c.unpin(p)
	}
}

// tableIDs hands every table created in the process a distinct origin
// identity (see Table.ID).
var tableIDs atomic.Uint64

// Table is an in-memory table with page-cost-modeled access.
type Table struct {
	Name    string
	Cols    []ColumnDef
	colIdx  map[string]int
	pages   []*rowPage // COW row storage; row id = page*PageRows + slot
	slots   int        // total row slots allocated (live + deleted)
	live    int
	frozen  bool   // set on snapshots: DML and DDL are rejected
	pk      *Index // unique index enforcing the primary key, may be nil
	pkCols  []int
	indexes []*Index
	fks     []ForeignKey
	checks  []CheckInList
	db      *Database
	pool    *bufferPool
	// cache, when set (PageCache.Adopt — i.e. the table belongs to a
	// registered database), manages page residency; pages created by
	// later inserts are born managed. Written under the database
	// writer lock, read by Insert under the same lock.
	cache *PageCache
	// id is the table's origin identity: assigned once in NewTable from
	// a process-wide counter and inherited verbatim by snapshots, so a
	// snapshot and its source answer "are you views of the same created
	// table?" with an integer compare. A table rebuilt under the same
	// name (ALTER's drop-and-recreate path) gets a fresh id.
	id uint64
	// version counts row-state mutations (Insert/Update/Delete),
	// monotonically. Writes happen under the database single-writer
	// lock (every statement executed through internal/exec holds it) or
	// in single-threaded generator code; snapshots freeze the value, so
	// (id, version) identifies immutable row content — the profile
	// memoization key. Column layout never changes in place (ALTER
	// rebuilds the table), so a version covers everything a profile
	// reads.
	version uint64
}

// rowAt returns the row in the given slot (nil when deleted), pinning
// the page across the read when it is cache-managed. The caller must
// have bounds-checked id against t.slots. The returned row stays
// valid after the pin drops: eviction releases the slot array, never
// the row backing arrays a caller holds.
func (t *Table) rowAt(id int64) Row {
	p := t.pages[id/PageRows]
	rows, c := p.view()
	r := rows[id%PageRows]
	p.unview(c)
	return r
}

// writablePage returns the page holding row ids [pi*PageRows, ...),
// copying it first when a snapshot shares it — the write half of the
// copy-on-write protocol: the snapshot keeps the frozen original. A
// shared spilled frame is faulted in for the copy; the copy becomes a
// fresh dirty frame while the original (and its disk record) stays
// frozen for the snapshots that share it.
func (t *Table) writablePage(pi int) *rowPage {
	p := t.pages[pi]
	if !p.shared {
		return p
	}
	src, c := p.view()
	cp := newRowPage()
	*cp.rows.Load() = *src
	p.unview(c)
	if c != nil {
		used := t.slots - pi*PageRows
		if used > PageRows {
			used = PageRows
		}
		c.adoptPage(cp, p.tid, used)
	}
	t.pages[pi] = cp
	return cp
}

// setRow stores r in the given slot through the COW barrier and,
// for managed pages, the pin/accounting discipline.
func (t *Table) setRow(id int64, r Row) {
	p := t.writablePage(int(id / PageRows))
	if c := p.cache.Load(); c != nil {
		c.write(p, id%PageRows, r)
		return
	}
	p.rows.Load()[id%PageRows] = r
}

// NewTable creates a table with the given columns. The table keeps
// cols and copies every name in it: a name is usually a substring of
// the statement that created it, and a copy lets that text go.
func NewTable(name string, cols []ColumnDef) *Table {
	t := &Table{
		Name: strings.Clone(name), Cols: cols, colIdx: make(map[string]int),
		pool: newBufferPool(0), id: tableIDs.Add(1),
	}
	for i := range cols {
		cols[i].Name = strings.Clone(cols[i].Name)
		t.colIdx[strings.ToLower(cols[i].Name)] = i
	}
	return t
}

// ID returns the table's origin identity: process-unique per created
// table and shared by every snapshot taken of it.
func (t *Table) ID() uint64 { return t.id }

// Version returns the monotonic row-mutation counter. Two tables (or
// snapshots) with equal ID and Version hold byte-identical row
// content, which is what makes (ID, Version) a sound memoization key
// for anything derived purely from the rows — "has this table changed
// since I last profiled it" is an integer compare. Reading the version
// of a live table races with writers; read it from a snapshot (whose
// value is frozen) or under the database writer lock.
func (t *Table) Version() uint64 { return t.version }

// bumpVersion advances the table's row-mutation counter and, when the
// table belongs to a database, the database's state version with it —
// so Database.Version moves on every DML statement as well as on DDL,
// making (Database.ID, Database.Version) a sound whole-database
// memoization key (the report cache's invalidation input). Runs under
// the same write discipline as every other mutation.
func (t *Table) bumpVersion() {
	t.version++
	if t.db != nil {
		t.db.version++
	}
}

// ColIndex returns the ordinal of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// Cap returns the number of row slots (live + deleted).
func (t *Table) Cap() int { return t.slots }

// Frozen reports whether the table is a read-only snapshot view.
func (t *Table) Frozen() bool { return t.frozen }

// IOStats returns the accumulated simulated I/O counters.
func (t *Table) IOStats() IOStats { return t.pool.stats }

// ResetIO clears the buffer pool and stats (used between benchmark
// phases so each measurement starts cold, as the paper's repeated
// cold-cache runs do).
func (t *Table) ResetIO() { t.pool.reset() }

// SetBufferPages resizes the simulated buffer pool.
func (t *Table) SetBufferPages(n int) {
	t.pool = newBufferPool(n)
}

func (t *Table) touchRowPage(id int64) { t.pool.touch(id / PageRows) }

// SetPrimaryKey declares the primary key columns. Must be called
// before rows are inserted.
func (t *Table) SetPrimaryKey(cols ...string) error {
	if t.frozen {
		return ErrFrozen
	}
	if t.slots > 0 {
		return errors.New("storage: primary key must be set before inserts")
	}
	var ords []int
	for _, c := range cols {
		i := t.ColIndex(c)
		if i < 0 {
			return fmt.Errorf("storage: unknown pk column %q", c)
		}
		ords = append(ords, i)
		t.Cols[i].NotNull = true
	}
	t.pkCols = ords
	t.pk = &Index{Name: t.Name + "_pkey", Cols: ords, Unique: true, tree: btree.New()}
	return nil
}

// PrimaryKey returns the pk column ordinals (nil when none).
func (t *Table) PrimaryKey() []int { return t.pkCols }

// AddForeignKey declares a foreign key to refTable(refCols...).
func (t *Table) AddForeignKey(name string, cols []string, refTable string, refCols []string, onDelete string) error {
	if t.frozen {
		return ErrFrozen
	}
	fk := ForeignKey{
		Name: strings.Clone(name), RefTable: strings.Clone(refTable),
		RefCols: cloneStrings(refCols), OnDelete: strings.Clone(strings.ToUpper(onDelete)),
	}
	for _, c := range cols {
		i := t.ColIndex(c)
		if i < 0 {
			return fmt.Errorf("storage: unknown fk column %q", c)
		}
		fk.Cols = append(fk.Cols, i)
	}
	t.fks = append(t.fks, fk)
	return nil
}

// ForeignKeys returns the declared foreign keys.
func (t *Table) ForeignKeys() []ForeignKey { return t.fks }

// AddCheckInList adds a CHECK (col IN (allowed...)) constraint,
// validating all existing rows first (a full scan, as ALTER TABLE ADD
// CONSTRAINT performs in a real DBMS — this cost is the heart of the
// enumerated-types experiment, Figure 8g–h).
func (t *Table) AddCheckInList(name, col string, allowed []string) error {
	if t.frozen {
		return ErrFrozen
	}
	ord := t.ColIndex(col)
	if ord < 0 {
		return fmt.Errorf("storage: unknown check column %q", col)
	}
	set := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		set[strings.Clone(a)] = true
	}
	var violation error
	t.Scan(func(id int64, r Row) bool {
		v := r[ord]
		if !v.IsNull() && !set[v.String()] {
			violation = fmt.Errorf("%w: %s=%q not in domain (constraint %s)", ErrCheck, col, v.String(), name)
			return false
		}
		return true
	})
	if violation != nil {
		return violation
	}
	t.checks = append(t.checks, CheckInList{Name: strings.Clone(name), Col: ord, Allowed: set})
	return nil
}

// DropCheck removes the named CHECK constraint. Returns false if no
// such constraint exists.
func (t *Table) DropCheck(name string) bool {
	if t.frozen {
		return false
	}
	for i := range t.checks {
		if strings.EqualFold(t.checks[i].Name, name) {
			t.checks = append(t.checks[:i], t.checks[i+1:]...)
			return true
		}
	}
	return false
}

// Checks returns the in-list CHECK constraints.
func (t *Table) Checks() []CheckInList { return t.checks }

// CreateIndex builds a secondary index over the given columns,
// populating it from existing rows.
func (t *Table) CreateIndex(name string, unique bool, cols ...string) (*Index, error) {
	if t.frozen {
		return nil, ErrFrozen
	}
	var ords []int
	for _, c := range cols {
		i := t.ColIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("storage: unknown index column %q", c)
		}
		ords = append(ords, i)
	}
	ix := &Index{Name: strings.Clone(name), Cols: ords, Unique: unique, tree: btree.New()}
	var dup error
	t.Scan(func(id int64, r Row) bool {
		k := ix.keyFor(r)
		if unique && len(ix.tree.Get(k)) > 0 {
			dup = fmt.Errorf("%w: index %s key %v", ErrDuplicateKey, name, ix.values(r))
			return false
		}
		ix.add(k, r, id)
		return true
	})
	if dup != nil {
		return nil, dup
	}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// DropIndex removes the named index; reports whether it existed.
func (t *Table) DropIndex(name string) bool {
	if t.frozen {
		return false
	}
	for i, ix := range t.indexes {
		if strings.EqualFold(ix.Name, name) {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return true
		}
	}
	return false
}

// Indexes returns the secondary indexes (not including the pk).
func (t *Table) Indexes() []*Index { return t.indexes }

// IndexOnLeading returns an index whose leading column is the given
// ordinal. Single-column indexes (which support exact point lookups)
// are preferred over composite ones; among equals the primary key
// wins.
func (t *Table) IndexOnLeading(col int) *Index {
	if t.pk != nil && len(t.pkCols) == 1 && t.pkCols[0] == col {
		return t.pk
	}
	for _, ix := range t.indexes {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			return ix
		}
	}
	if t.pk != nil && t.pkCols[0] == col {
		return t.pk
	}
	for _, ix := range t.indexes {
		if ix.Cols[0] == col {
			return ix
		}
	}
	return nil
}

// checkRow validates NOT NULL and CHECK constraints.
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("%w: got %d values, want %d", ErrArity, len(r), len(t.Cols))
	}
	for i, c := range t.Cols {
		if c.NotNull && r[i].IsNull() {
			return fmt.Errorf("%w: column %s", ErrNotNull, c.Name)
		}
	}
	for _, ck := range t.checks {
		v := r[ck.Col]
		if !v.IsNull() && !ck.Allowed[v.String()] {
			return fmt.Errorf("%w: %s=%q (constraint %s)", ErrCheck, t.Cols[ck.Col].Name, v.String(), ck.Name)
		}
	}
	return nil
}

// checkFKs validates foreign keys for the row, performing indexed
// lookups into referenced tables (each lookup pays simulated I/O on
// the referenced table's pages — the overhead visible in Figure 8d).
func (t *Table) checkFKs(r Row) error {
	for _, fk := range t.fks {
		if t.db == nil {
			continue
		}
		ref := t.db.Table(fk.RefTable)
		if ref == nil {
			continue
		}
		allNull := true
		vals := make([]Value, len(fk.Cols))
		for i, c := range fk.Cols {
			vals[i] = r[c]
			if !r[c].IsNull() {
				allNull = false
			}
		}
		if allNull {
			continue
		}
		ids := ref.lookupByCols(fk.RefCols, vals)
		if len(ids) == 0 {
			return fmt.Errorf("%w: %s -> %s", ErrForeignKey, t.Name, fk.RefTable)
		}
	}
	return nil
}

// lookupByCols finds rows whose named columns equal vals, using an
// index when one matches, else a sequential scan.
func (t *Table) lookupByCols(cols []string, vals []Value) []int64 {
	var ords []int
	if len(cols) == 0 && t.pk != nil {
		ords = t.pkCols
	} else {
		for _, c := range cols {
			i := t.ColIndex(c)
			if i < 0 {
				return nil
			}
			ords = append(ords, i)
		}
	}
	if ix := t.matchIndex(ords); ix != nil {
		key := EncodeKey(vals...)
		ids := ix.tree.Get(key)
		// Pay for fetching the referenced pages.
		for _, id := range ids {
			t.touchRowPage(id)
		}
		return ids
	}
	var out []int64
	t.Scan(func(id int64, r Row) bool {
		for i, o := range ords {
			if !Equal(r[o], vals[i]) {
				return true
			}
		}
		out = append(out, id)
		return true
	})
	return out
}

// matchIndex finds an index exactly covering the given ordinals.
func (t *Table) matchIndex(ords []int) *Index {
	match := func(ix *Index) bool {
		if len(ix.Cols) != len(ords) {
			return false
		}
		for i := range ords {
			if ix.Cols[i] != ords[i] {
				return false
			}
		}
		return true
	}
	if t.pk != nil && match(t.pk) {
		return t.pk
	}
	for _, ix := range t.indexes {
		if match(ix) {
			return ix
		}
	}
	return nil
}

// Insert adds a row, enforcing all constraints and maintaining every
// index (per-index maintenance cost is what Figure 8a measures).
// Insert takes ownership of r: on success the table stores r itself,
// not a copy, so the caller must neither modify r nor reuse its
// backing array afterwards. Stored rows are never mutated in place,
// so a row read from a table may be inserted into another as it is.
func (t *Table) Insert(r Row) (int64, error) {
	if t.frozen {
		return 0, ErrFrozen
	}
	if err := t.checkRow(r); err != nil {
		return 0, err
	}
	if err := t.checkFKs(r); err != nil {
		return 0, err
	}
	// Each key is encoded once and serves both the duplicate probe
	// and the tree insert below; keyBuf keeps up to four index keys
	// off the heap.
	var pkKey string
	if t.pk != nil {
		pkKey = t.pk.keyFor(r)
		if len(t.pk.tree.Get(pkKey)) > 0 {
			return 0, fmt.Errorf("%w: table %s pk", ErrDuplicateKey, t.Name)
		}
	}
	var keyBuf [4]string
	keys := keyBuf[:0]
	for _, ix := range t.indexes {
		key := ix.keyFor(r)
		if ix.Unique && len(ix.tree.Get(key)) > 0 {
			return 0, fmt.Errorf("%w: index %s", ErrDuplicateKey, ix.Name)
		}
		keys = append(keys, key)
	}
	id := int64(t.slots)
	if int(id/PageRows) == len(t.pages) {
		np := newRowPage()
		if t.cache != nil {
			t.cache.adoptPage(np, t.id, 0)
		}
		t.pages = append(t.pages, np)
	}
	t.setRow(id, r)
	t.slots++
	t.live++
	t.bumpVersion()
	t.touchRowPage(id)
	if t.pk != nil {
		t.pk.add(pkKey, r, id)
	}
	for i, ix := range t.indexes {
		ix.add(keys[i], r, id)
	}
	return id, nil
}

// MustInsert inserts and panics on constraint violation; intended for
// workload generators building known-good data. Like Insert it takes
// ownership of vals: pass the values as arguments, or spread a slice
// that is never used again.
func (t *Table) MustInsert(vals ...Value) int64 {
	id, err := t.Insert(Row(vals))
	if err != nil {
		panic(fmt.Sprintf("MustInsert into %s: %v", t.Name, err))
	}
	return id
}

// Fetch returns the row with the given id (paying page cost), or
// ErrNoRow.
func (t *Table) Fetch(id int64) (Row, error) {
	if id < 0 || id >= int64(t.slots) {
		return nil, ErrNoRow
	}
	r := t.rowAt(id)
	if r == nil {
		return nil, ErrNoRow
	}
	t.touchRowPage(id)
	return r, nil
}

// Scan iterates all live rows in physical order, paying page cost once
// per page. fn returning false stops the scan. Each page is pinned
// for the duration of its slot walk — one pin per PageRows rows, so
// managed tables pay a mutex pair per page, not per row.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	slots := int64(t.slots)
	for base := int64(0); base < slots; base += PageRows {
		p := t.pages[base/PageRows]
		rows, c := p.view()
		end := slots - base
		if end > PageRows {
			end = PageRows
		}
		touched := false
		for s := int64(0); s < end; s++ {
			r := rows[s]
			if r == nil {
				continue
			}
			if !touched {
				t.pool.touch(base / PageRows)
				touched = true
			}
			if !fn(base+s, r) {
				p.unview(c)
				return
			}
		}
		p.unview(c)
	}
}

// ScanReadOnly iterates all live rows in physical order without
// touching the simulated buffer pool. The cost model exists to
// measure workload queries; analysis-side readers (the data profiler)
// use this scan so they neither skew the I/O statistics nor mutate
// pool state — which makes it safe for any number of concurrent
// readers. On a live table that still requires no DML during the
// scan; profiling a Snapshot lifts even that restriction, because
// writers copy shared pages instead of mutating them. Cache-managed
// pages are pinned page-wise, so a spilled page faults in once per
// scan, not once per row.
func (t *Table) ScanReadOnly(fn func(id int64, r Row) bool) {
	slots := int64(t.slots)
	for base := int64(0); base < slots; base += PageRows {
		p := t.pages[base/PageRows]
		rows, c := p.view()
		end := slots - base
		if end > PageRows {
			end = PageRows
		}
		for s := int64(0); s < end; s++ {
			r := rows[s]
			if r == nil {
				continue
			}
			if !fn(base+s, r) {
				p.unview(c)
				return
			}
		}
		p.unview(c)
	}
}

// Update replaces the row with the given id, re-checking constraints
// and maintaining indexes. Like Insert it takes ownership of newRow:
// build it fresh (a Clone of the stored row, then modified) and do not
// touch it afterwards.
func (t *Table) Update(id int64, newRow Row) error {
	if t.frozen {
		return ErrFrozen
	}
	if id < 0 || id >= int64(t.slots) {
		return ErrNoRow
	}
	old := t.rowAt(id)
	if old == nil {
		return ErrNoRow
	}
	if err := t.checkRow(newRow); err != nil {
		return err
	}
	if err := t.checkFKs(newRow); err != nil {
		return err
	}
	if t.pk != nil {
		newKey := t.pk.keyFor(newRow)
		if newKey != t.pk.keyFor(old) {
			if len(t.pk.tree.Get(newKey)) > 0 {
				return fmt.Errorf("%w: table %s pk", ErrDuplicateKey, t.Name)
			}
		}
	}
	for _, ix := range t.indexes {
		newKey := ix.keyFor(newRow)
		oldKey := ix.keyFor(old)
		if ix.Unique && newKey != oldKey && len(ix.tree.Get(newKey)) > 0 {
			return fmt.Errorf("%w: index %s", ErrDuplicateKey, ix.Name)
		}
	}
	t.touchRowPage(id)
	if t.pk != nil {
		oldKey, newKey := t.pk.keyFor(old), t.pk.keyFor(newRow)
		if oldKey != newKey {
			t.pk.remove(oldKey, old, id)
			t.pk.add(newKey, newRow, id)
		}
	}
	for _, ix := range t.indexes {
		oldKey, newKey := ix.keyFor(old), ix.keyFor(newRow)
		if oldKey != newKey {
			ix.remove(oldKey, old, id)
			ix.add(newKey, newRow, id)
		}
	}
	t.setRow(id, newRow)
	t.bumpVersion()
	return nil
}

// Delete removes the row with the given id, enforcing referential
// actions declared by other tables' foreign keys onto this one:
// RESTRICT (default) refuses, CASCADE deletes referencing rows,
// SET NULL clears the referencing columns.
func (t *Table) Delete(id int64) error {
	if t.frozen {
		return ErrFrozen
	}
	if id < 0 || id >= int64(t.slots) {
		return ErrNoRow
	}
	row := t.rowAt(id)
	if row == nil {
		return ErrNoRow
	}
	if t.db != nil {
		if err := t.db.applyReferentialActions(t, row); err != nil {
			return err
		}
	}
	t.touchRowPage(id)
	if t.pk != nil {
		t.pk.remove(t.pk.keyFor(row), row, id)
	}
	for _, ix := range t.indexes {
		ix.remove(ix.keyFor(row), row, id)
	}
	t.setRow(id, nil)
	t.live--
	t.bumpVersion()
	return nil
}

// IndexTouches returns the total index-maintenance operations
// performed, across all indexes including the pk.
func (t *Table) IndexTouches() int64 {
	var n int64
	if t.pk != nil {
		n += t.pk.touches
	}
	for _, ix := range t.indexes {
		n += ix.touches
	}
	return n
}

// cloneStrings returns a copy of ss whose strings own their bytes.
func cloneStrings(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.Clone(s)
	}
	return out
}
