package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

// Database state codec: a deterministic binary serialization of a
// storage.Database used for register records and checkpoint files.
// Only observable state is encoded — schema (columns, primary key,
// indexes, checks, foreign keys) and live rows in scan order. Free
// slots left by deletes, buffer-pool contents, and I/O statistics are
// deliberately not durable: decoding compacts rows, which preserves
// live-row scan order and therefore profile byte-identity, while the
// physical slot layout is an artifact of execution history no rule
// reads. Origin IDs are likewise not serialized: a recovered database
// mints fresh process-unique IDs, which is exactly what keeps the
// ProfileCache/ReportCache keying sound — a restarted process can
// never collide with keys minted by a previous incarnation.

const codecVersion = 1

// EncodeDatabase serializes the database. The handle must be
// quiesced: either a frozen snapshot (the checkpoint path) or a live
// database whose writer lock the caller holds (the register path).
func EncodeDatabase(db *storage.Database) []byte {
	return appendDatabase(make([]byte, 0, 1024), db)
}

// appendDatabase appends EncodeDatabase's serialization of db to b.
// The checkpoint passes one buffer for every tenant, so it holds a
// single tenant's encoding at a time.
func appendDatabase(b []byte, db *storage.Database) []byte {
	tables := db.Tables()
	b = appendHeader(b, db.Name, len(tables))
	for _, t := range tables {
		b = encodeSchema(b, t)
		t.ScanReadOnly(func(_ int64, r storage.Row) bool {
			b = storage.AppendRow(b, r)
			return true
		})
	}
	return b
}

// databaseLen returns len(EncodeDatabase(db)) without building the
// blob, so a register record can be allocated once at its final size:
// the header and each table's schema are encoded into a small scratch
// buffer and measured, and rows are sized value by value.
func databaseLen(db *storage.Database) int {
	tables := db.Tables()
	scratch := appendHeader(nil, db.Name, len(tables))
	n := len(scratch)
	for _, t := range tables {
		scratch = encodeSchema(scratch[:0], t)
		n += len(scratch)
		t.ScanReadOnly(func(_ int64, r storage.Row) bool {
			n += storage.RowLen(r)
			return true
		})
	}
	return n
}

func appendHeader(b []byte, name string, tables int) []byte {
	b = append(b, codecVersion)
	b = storage.AppendString(b, name)
	return binary.AppendUvarint(b, uint64(tables))
}

// encodeSchema appends a table's name, columns, constraints and live
// row count: everything the table section holds before its rows.
func encodeSchema(b []byte, t *storage.Table) []byte {
	b = storage.AppendString(b, t.Name)
	b = binary.AppendUvarint(b, uint64(len(t.Cols)))
	for _, c := range t.Cols {
		b = storage.AppendString(b, c.Name)
		b = binary.AppendUvarint(b, uint64(c.Class))
		b = storage.AppendBool(b, c.NotNull)
	}
	pk := t.PrimaryKey()
	b = binary.AppendUvarint(b, uint64(len(pk)))
	for _, ord := range pk {
		b = storage.AppendString(b, t.Cols[ord].Name)
	}
	ixs := t.Indexes()
	b = binary.AppendUvarint(b, uint64(len(ixs)))
	for _, ix := range ixs {
		b = storage.AppendString(b, ix.Name)
		b = storage.AppendBool(b, ix.Unique)
		b = binary.AppendUvarint(b, uint64(len(ix.Cols)))
		for _, ord := range ix.Cols {
			b = storage.AppendString(b, t.Cols[ord].Name)
		}
	}
	checks := t.Checks()
	b = binary.AppendUvarint(b, uint64(len(checks)))
	for _, ck := range checks {
		b = storage.AppendString(b, ck.Name)
		b = storage.AppendString(b, t.Cols[ck.Col].Name)
		vals := make([]string, 0, len(ck.Allowed))
		for v := range ck.Allowed {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			b = storage.AppendString(b, v)
		}
	}
	fks := t.ForeignKeys()
	b = binary.AppendUvarint(b, uint64(len(fks)))
	for _, fk := range fks {
		b = storage.AppendString(b, fk.Name)
		b = binary.AppendUvarint(b, uint64(len(fk.Cols)))
		for _, ord := range fk.Cols {
			b = storage.AppendString(b, t.Cols[ord].Name)
		}
		b = storage.AppendString(b, fk.RefTable)
		b = binary.AppendUvarint(b, uint64(len(fk.RefCols)))
		for _, rc := range fk.RefCols {
			b = storage.AppendString(b, rc)
		}
		b = storage.AppendString(b, fk.OnDelete)
	}
	// Live rows follow in scan order — the order profiling observes.
	return binary.AppendUvarint(b, uint64(t.Len()))
}

// decodedTable buffers one table's sections so DecodeDatabase can
// apply them in dependency order: all schemas, then all rows, then
// all foreign keys — FKs last because AddForeignKey does not validate
// existing rows but Insert validates FKs, and a register-time state
// may reference tables created later in the stream.
type decodedTable struct {
	name    string
	cols    []storage.ColumnDef
	pk      []string
	indexes []decodedIndex
	checks  []decodedCheck
	fks     []decodedFK
	rows    []storage.Row
}

type decodedIndex struct {
	name   string
	unique bool
	cols   []string
}

type decodedCheck struct {
	name, col string
	allowed   []string
}

type decodedFK struct {
	name     string
	cols     []string
	refTable string
	refCols  []string
	onDelete string
}

// DecodeDatabase reconstructs a database from EncodeDatabase output.
// The result is a fresh live handle with a fresh origin ID.
func DecodeDatabase(blob []byte) (*storage.Database, error) {
	r := &storage.ByteReader{Buf: blob}
	if ver := r.Byte(); ver != codecVersion {
		return nil, fmt.Errorf("wal: unsupported database codec version %d", ver)
	}
	name := r.Str()
	ntab := int(r.Uvarint())
	if r.Err != nil {
		return nil, r.Err
	}
	tabs := make([]*decodedTable, 0, ntab)
	for i := 0; i < ntab; i++ {
		dt, err := decodeTable(r)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, dt)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if len(r.Buf) != r.Off {
		return nil, fmt.Errorf("wal: %d trailing bytes after database blob", len(r.Buf)-r.Off)
	}

	db := storage.NewDatabase(name)
	for _, dt := range tabs {
		t := db.CreateTable(dt.name, dt.cols)
		if len(dt.pk) > 0 {
			if err := t.SetPrimaryKey(dt.pk...); err != nil {
				return nil, fmt.Errorf("wal: decode %s.%s: %w", name, dt.name, err)
			}
		}
		for _, ix := range dt.indexes {
			if _, err := t.CreateIndex(ix.name, ix.unique, ix.cols...); err != nil {
				return nil, fmt.Errorf("wal: decode %s.%s: %w", name, dt.name, err)
			}
		}
		for _, ck := range dt.checks {
			if err := t.AddCheckInList(ck.name, ck.col, ck.allowed); err != nil {
				return nil, fmt.Errorf("wal: decode %s.%s: %w", name, dt.name, err)
			}
		}
	}
	for _, dt := range tabs {
		t := db.Table(dt.name)
		for _, row := range dt.rows {
			if _, err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("wal: decode %s.%s row: %w", name, dt.name, err)
			}
		}
	}
	for _, dt := range tabs {
		t := db.Table(dt.name)
		for _, fk := range dt.fks {
			if err := t.AddForeignKey(fk.name, fk.cols, fk.refTable, fk.refCols, fk.onDelete); err != nil {
				return nil, fmt.Errorf("wal: decode %s.%s: %w", name, dt.name, err)
			}
		}
	}
	return db, nil
}

func decodeTable(r *storage.ByteReader) (*decodedTable, error) {
	dt := &decodedTable{name: r.Str()}
	ncols := int(r.Uvarint())
	if r.Err != nil {
		return nil, r.Err
	}
	for i := 0; i < ncols; i++ {
		dt.cols = append(dt.cols, storage.ColumnDef{
			Name:    r.Str(),
			Class:   schema.TypeClass(r.Uvarint()),
			NotNull: r.Bool(),
		})
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err == nil; i++ {
		dt.pk = append(dt.pk, r.Str())
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err == nil; i++ {
		ix := decodedIndex{name: r.Str(), unique: r.Bool()}
		for j, m := 0, int(r.Uvarint()); j < m && r.Err == nil; j++ {
			ix.cols = append(ix.cols, r.Str())
		}
		dt.indexes = append(dt.indexes, ix)
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err == nil; i++ {
		ck := decodedCheck{name: r.Str(), col: r.Str()}
		for j, m := 0, int(r.Uvarint()); j < m && r.Err == nil; j++ {
			ck.allowed = append(ck.allowed, r.Str())
		}
		dt.checks = append(dt.checks, ck)
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err == nil; i++ {
		fk := decodedFK{name: r.Str()}
		for j, m := 0, int(r.Uvarint()); j < m && r.Err == nil; j++ {
			fk.cols = append(fk.cols, r.Str())
		}
		fk.refTable = r.Str()
		for j, m := 0, int(r.Uvarint()); j < m && r.Err == nil; j++ {
			fk.refCols = append(fk.refCols, r.Str())
		}
		fk.onDelete = r.Str()
		dt.fks = append(dt.fks, fk)
	}
	nrows := int(r.Uvarint())
	for i := 0; i < nrows && r.Err == nil; i++ {
		nvals := int(r.Uvarint())
		row := make(storage.Row, 0, nvals)
		for j := 0; j < nvals && r.Err == nil; j++ {
			row = append(row, storage.DecodeValue(r))
		}
		dt.rows = append(dt.rows, row)
	}
	return dt, r.Err
}
