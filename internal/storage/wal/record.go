package wal

import (
	"encoding/binary"
	"fmt"

	"sqlcheck/internal/storage"
)

// Logical record types. The log is logical, not physical: exec
// records carry the original SQL text and replay re-executes it
// through the deterministic executor, which is what keeps recovered
// profiles byte-identical (per-statement fixed-seed Rand, identical
// scan order) without serializing pages per statement.
type recordType byte

const (
	// recRegister carries the tenant name and the full encoded database
	// state at registration time — databases are built before they are
	// registered, so their pre-registration history is not in the log.
	recRegister recordType = 1
	// recExec carries the tenant name and one successfully applied
	// mutating statement's SQL text.
	recExec recordType = 2
	// recUnregister carries just the tenant name.
	recUnregister recordType = 3
)

// Each encoder builds its record in place behind a reserved frame
// header (newFrame), so the frame walLog.append writes is the only
// buffer a record ever occupies.

// encodeRegister encodes db's state directly into the record's frame.
// The state is sized first (databaseLen), so the frame is allocated
// once at its final length: no growth, no copy of the state. A
// sizing that disagrees with the encoding is reported, never logged.
func encodeRegister(name string, db *storage.Database) ([]byte, error) {
	n := databaseLen(db)
	b := newFrame(1 + binary.MaxVarintLen64 + len(name) + binary.MaxVarintLen64 + n)
	b = append(b, byte(recRegister))
	b = storage.AppendString(b, name)
	b = binary.AppendUvarint(b, uint64(n))
	start := len(b)
	b = appendDatabase(b, db)
	if got := len(b) - start; got != n {
		return nil, fmt.Errorf("wal: register %q: state encoded to %d bytes, sized at %d", name, got, n)
	}
	return b, nil
}

func encodeExec(name, sql string) []byte {
	b := newFrame(len(name) + len(sql) + 16)
	b = append(b, byte(recExec))
	b = storage.AppendString(b, name)
	return storage.AppendString(b, sql)
}

func encodeUnregister(name string) []byte {
	b := newFrame(len(name) + 8)
	b = append(b, byte(recUnregister))
	return storage.AppendString(b, name)
}

// record is one decoded logical record.
type record struct {
	typ   recordType
	name  string
	sql   string // recExec
	state []byte // recRegister
}

func decodeRecord(payload []byte) (record, error) {
	r := &storage.ByteReader{Buf: payload}
	rec := record{typ: recordType(r.Byte()), name: r.Str()}
	switch rec.typ {
	case recRegister:
		n := int(r.Uvarint())
		if r.Err == nil && (n < 0 || r.Off+n > len(r.Buf)) {
			r.Fail()
		}
		if r.Err == nil {
			rec.state = payload[r.Off : r.Off+n]
			r.Off += n
		}
	case recExec:
		rec.sql = r.Str()
	case recUnregister:
	default:
		return rec, fmt.Errorf("wal: unknown record type %d", rec.typ)
	}
	if r.Err != nil {
		return rec, r.Err
	}
	if r.Off != len(r.Buf) {
		return rec, fmt.Errorf("wal: %d trailing bytes in record", len(r.Buf)-r.Off)
	}
	return rec, nil
}
