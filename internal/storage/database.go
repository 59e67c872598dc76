package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlcheck/internal/schema"
)

// databaseIDs hands every database created in the process a distinct
// origin identity (see Database.ID).
var databaseIDs atomic.Uint64

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
	// mu is the single-writer lock: the executor holds it for the
	// duration of each statement, Snapshot holds it while capturing
	// pages, and PageCache.Adopt holds it while bringing pages under
	// cache management, so snapshots observe statement-atomic states
	// and adoption never races a writer. Direct Table/Database mutator
	// calls (test and generator code) do not take it and therefore
	// must not run concurrently with anything.
	mu sync.Mutex
	// frozen marks snapshot views: the executor rejects DDL and DML
	// against them (the tables carry their own frozen flags too).
	frozen bool
	// id is the database's origin identity, assigned in NewDatabase and
	// inherited by snapshots; version counts database-state mutations
	// — catalog changes (AddTable/DropTable) and, via Table.bumpVersion,
	// every row mutation of a member table — monotonically, under the
	// same write discipline as Table.version. Together with the
	// per-table counters they make "has anything I analyzed changed?"
	// an integer compare instead of a content diff.
	id      uint64
	version uint64
	// commitHook, when set, is invoked by the executor after each
	// successfully applied mutating statement, while the writer lock is
	// still held — the durability layer appends the statement's WAL
	// record there. Guarded by mu; snapshots never carry it (they are
	// frozen, so nothing fires it).
	commitHook func(sql string) error
	// durableLSN is the log sequence number of the last WAL record
	// reflected in this database's state. Guarded by mu on live
	// handles; Snapshot copies it, so a snapshot carries the exact
	// watermark of the state it froze — the checkpoint writer relies on
	// that pairing being atomic.
	durableLSN uint64
}

// NewDatabase creates an empty database. Like every name storage
// keeps, the database's name is copied.
func NewDatabase(name string) *Database {
	return &Database{Name: strings.Clone(name), tables: make(map[string]*Table), id: databaseIDs.Add(1)}
}

// ID returns the database's origin identity: process-unique per
// created database and shared by every snapshot taken of it.
func (db *Database) ID() uint64 { return db.id }

// Version returns the monotonic database-state counter: it advances
// on catalog mutations (table creations and drops) and on every row
// mutation of any registered table, so equal (ID, Version) pairs mean
// "nothing observable about this database has changed" — the integer
// compare the report memoization cache invalidates by. Like
// Table.Version it is frozen on snapshots and must be read under the
// writer lock on a live handle.
func (db *Database) Version() uint64 { return db.version }

// Lock acquires the database's single-writer mutex. The executor
// wraps each statement in Lock/Unlock so concurrent Exec callers
// serialize per statement and Snapshot sees statement-atomic states.
func (db *Database) Lock() { db.mu.Lock() }

// Unlock releases the single-writer mutex.
func (db *Database) Unlock() { db.mu.Unlock() }

// Frozen reports whether the database is a read-only snapshot view.
func (db *Database) Frozen() bool { return db.frozen }

// SetCommitHook installs (or, with nil, removes) the post-statement
// durability hook. Callers must hold the writer lock or have
// exclusive ownership of the handle.
func (db *Database) SetCommitHook(h func(sql string) error) { db.commitHook = h }

// CommitHook returns the installed durability hook, or nil. The
// executor reads it under the writer lock it already holds.
func (db *Database) CommitHook() func(sql string) error { return db.commitHook }

// SetDurableLSN records the WAL sequence number of the last record
// reflected in this database's state. Must be called under the writer
// lock (the executor's commit hook already holds it).
func (db *Database) SetDurableLSN(lsn uint64) { db.durableLSN = lsn }

// DurableLSN returns the durability watermark. On a live handle it
// must be read under the writer lock; on a snapshot it is immutable
// and pairs atomically with the frozen state.
func (db *Database) DurableLSN() uint64 { return db.durableLSN }

// AddTable registers a table with the database, wiring it for foreign
// key resolution.
func (db *Database) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	if _, ok := db.tables[key]; !ok {
		db.order = append(db.order, key)
	}
	db.tables[key] = t
	t.db = db
	db.version++
}

// CreateTable creates and registers a table.
func (db *Database) CreateTable(name string, cols []ColumnDef) *Table {
	t := NewTable(name, cols)
	db.AddTable(t)
	return t
}

// DropTable removes a table; reports whether it existed. Snapshot
// views refuse.
func (db *Database) DropTable(name string) bool {
	if db.frozen {
		return false
	}
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return false
	}
	delete(db.tables, key)
	for i, k := range db.order {
		if k == key {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.version++
	return true
}

// Table returns the named table (case-insensitive), or nil.
func (db *Database) Table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// Tables returns all tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.tables[k])
	}
	return out
}

// applyReferentialActions handles deletes from parent: for each table
// with a foreign key referencing parent, apply its ON DELETE action to
// rows matching the deleted parent row.
func (db *Database) applyReferentialActions(parent *Table, parentRow Row) error {
	for _, child := range db.Tables() {
		for _, fk := range child.fks {
			if !strings.EqualFold(fk.RefTable, parent.Name) {
				continue
			}
			// Values of the referenced columns in the parent row.
			refVals := make([]Value, 0, len(fk.RefCols))
			if len(fk.RefCols) == 0 {
				for _, o := range parent.pkCols {
					refVals = append(refVals, parentRow[o])
				}
			} else {
				for _, rc := range fk.RefCols {
					o := parent.ColIndex(rc)
					if o < 0 {
						return fmt.Errorf("storage: fk %s references unknown column %s", fk.Name, rc)
					}
					refVals = append(refVals, parentRow[o])
				}
			}
			// Find referencing rows in the child.
			var hits []int64
			if ix := child.matchIndex(fk.Cols); ix != nil {
				hits = append(hits, ix.tree.Get(EncodeKey(refVals...))...)
			} else {
				child.Scan(func(id int64, r Row) bool {
					for i, c := range fk.Cols {
						if !Equal(r[c], refVals[i]) {
							return true
						}
					}
					hits = append(hits, id)
					return true
				})
			}
			if len(hits) == 0 {
				continue
			}
			switch fk.OnDelete {
			case "CASCADE":
				for _, id := range hits {
					if err := child.Delete(id); err != nil {
						return err
					}
				}
			case "SET NULL":
				for _, id := range hits {
					row := child.rowAt(id).Clone()
					for _, c := range fk.Cols {
						row[c] = Null()
					}
					if err := child.Update(id, row); err != nil {
						return err
					}
				}
			default: // RESTRICT / NO ACTION
				return fmt.Errorf("%w: %s referenced by %s", ErrRestrict, parent.Name, child.Name)
			}
		}
	}
	return nil
}

// ResetIO clears the buffer pools and I/O stats of every table.
func (db *Database) ResetIO() {
	for _, t := range db.Tables() {
		t.ResetIO()
	}
}

// TotalIO sums the I/O stats across tables.
func (db *Database) TotalIO() IOStats {
	var s IOStats
	for _, t := range db.Tables() {
		st := t.IOStats()
		s.PageReads += st.PageReads
		s.CacheHits += st.CacheHits
	}
	return s
}

// ---------------------------------------------------------------------------
// Schema bridging
// ---------------------------------------------------------------------------

// CreateTableFromSchema instantiates a storage table from a catalog
// definition, including primary key, foreign keys, unique indexes, and
// in-list CHECK constraints.
func (db *Database) CreateTableFromSchema(ts *schema.Table) (*Table, error) {
	cols := make([]ColumnDef, len(ts.Columns))
	for i, c := range ts.Columns {
		cols[i] = ColumnDef{Name: c.Name, Class: c.Class, NotNull: c.NotNull}
	}
	t := db.CreateTable(ts.Name, cols)
	if len(ts.PrimaryKey) > 0 {
		if err := t.SetPrimaryKey(ts.PrimaryKey...); err != nil {
			return nil, err
		}
	}
	for _, fk := range ts.ForeignKeys {
		if err := t.AddForeignKey(fk.Name, fk.Columns, fk.RefTable, fk.RefColumns, fk.OnDelete); err != nil {
			return nil, err
		}
	}
	for _, ix := range ts.Indexes {
		if _, err := t.CreateIndex(ix.Name, ix.Unique, ix.Columns...); err != nil {
			return nil, err
		}
	}
	for i, c := range ts.Columns {
		if len(c.CheckInValues) > 0 {
			name := fmt.Sprintf("%s_%s_check", ts.Name, c.Name)
			if err := t.AddCheckInList(name, ts.Columns[i].Name, c.CheckInValues); err != nil {
				return nil, err
			}
		}
	}
	for _, ck := range ts.Checks {
		if ck.Column != "" && len(ck.InValues) > 0 {
			// Skip duplicates already added via the column mirror.
			dup := false
			ord := t.ColIndex(ck.Column)
			for _, existing := range t.checks {
				if existing.Col == ord {
					dup = true
					break
				}
			}
			if !dup {
				if err := t.AddCheckInList(ck.Name, ck.Column, ck.InValues); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Reflect produces a schema catalog describing this database — the
// storage-engine analogue of SQLAlchemy reflection, used by the
// context builder when a live database is supplied (paper §4.2).
func (db *Database) Reflect() *schema.Schema {
	s := schema.NewSchema()
	for _, t := range db.Tables() {
		ts := &schema.Table{Name: t.Name}
		for _, c := range t.Cols {
			ts.Columns = append(ts.Columns, schema.Column{
				Name:    c.Name,
				Type:    classToType(c.Class),
				Class:   c.Class,
				NotNull: c.NotNull,
			})
		}
		for _, o := range t.pkCols {
			ts.PrimaryKey = append(ts.PrimaryKey, t.Cols[o].Name)
		}
		for _, fk := range t.fks {
			sfk := schema.ForeignKey{
				Name:       fk.Name,
				RefTable:   fk.RefTable,
				RefColumns: fk.RefCols,
				OnDelete:   fk.OnDelete,
			}
			for _, o := range fk.Cols {
				sfk.Columns = append(sfk.Columns, t.Cols[o].Name)
			}
			ts.ForeignKeys = append(ts.ForeignKeys, sfk)
			if strings.EqualFold(fk.RefTable, t.Name) {
				ts.SelfRefFK = true
			}
		}
		for _, ix := range t.indexes {
			six := schema.Index{Name: ix.Name, Unique: ix.Unique}
			for _, o := range ix.Cols {
				six.Columns = append(six.Columns, t.Cols[o].Name)
			}
			ts.Indexes = append(ts.Indexes, six)
		}
		for _, ck := range t.checks {
			vals := make([]string, 0, len(ck.Allowed))
			for v := range ck.Allowed {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			col := t.Cols[ck.Col].Name
			ts.Checks = append(ts.Checks, schema.CheckConstraint{Name: ck.Name, Column: col, InValues: vals})
			if c := ts.Column(col); c != nil {
				c.CheckInValues = vals
			}
		}
		s.AddTable(ts)
	}
	return s
}

func classToType(c schema.TypeClass) string {
	switch c {
	case schema.ClassInteger:
		return "INTEGER"
	case schema.ClassExactNumeric:
		return "NUMERIC"
	case schema.ClassApproxNumeric:
		return "FLOAT"
	case schema.ClassChar:
		return "VARCHAR"
	case schema.ClassText:
		return "TEXT"
	case schema.ClassBool:
		return "BOOLEAN"
	case schema.ClassDate:
		return "DATE"
	case schema.ClassTimeTZ:
		return "TIMESTAMP WITH TIME ZONE"
	case schema.ClassTimeNoTZ:
		return "TIMESTAMP"
	case schema.ClassEnum:
		return "ENUM"
	case schema.ClassBlob:
		return "BLOB"
	default:
		return "TEXT"
	}
}
