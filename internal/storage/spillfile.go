package storage

// Per-table spill files. Each adopted table origin gets one
// append-only page file: evicting a dirty frame appends a page
// record, re-evicting the same frame appends a superseding record
// and counts the old one as garbage, and when garbage dominates the
// file is rewritten in place (records relocated, frame disk refs
// updated). Page records hold live slots only — the deleted-slot
// compaction the in-heap layout never performs, because slot IDs are
// index-visible and must stay stable in memory but mean nothing on
// disk (the record stores each slot's index explicitly).
//
// Record format (all integers varint unless noted), encoded with the
// same value codec as WAL checkpoints (codec.go):
//
//	uvarint liveCount
//	liveCount × { uvarint slot; uvarint arity; arity × AppendValue }

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"weak"
)

// spillCompactMin is the garbage floor below which a file is never
// rewritten, whatever the ratio.
const spillCompactMin = 1 << 20

// diskRef locates a frame's current page record. The struct identity
// is stable for the frame's lifetime; offset and length are guarded
// by the owning file's mutex (compaction relocates records in
// place).
type diskRef struct {
	off int64
	n   int32
}

// spillFile is one table origin's page file.
type spillFile struct {
	mu          sync.Mutex
	path        string
	f           *os.File // opened lazily on first write
	size        int64    // append offset
	live        int64    // bytes of records still referenced by a frame
	garbage     int64
	compactions int64
	// refs tracks every record for compaction. Values are weak: a
	// frame owned only by dropped snapshots must stay collectable,
	// and compaction reaps the dead entries (their records become
	// reclaimable garbage).
	refs map[*diskRef]weak.Pointer[rowPage]
}

func newSpillFile(path string) *spillFile {
	return &spillFile{path: path, refs: make(map[*diskRef]weak.Pointer[rowPage])}
}

func (sf *spillFile) stats() (size, garbage, compactions int64) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.size, sf.garbage, sf.compactions
}

func (sf *spillFile) close() error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	var err error
	if sf.f != nil {
		err = sf.f.Close()
		sf.f = nil
	}
	if rmErr := os.Remove(sf.path); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
		err = rmErr
	}
	sf.refs = make(map[*diskRef]weak.Pointer[rowPage])
	sf.size, sf.live, sf.garbage = 0, 0, 0
	return err
}

func (sf *spillFile) open() error {
	if sf.f != nil {
		return nil
	}
	f, err := os.OpenFile(sf.path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return err
	}
	sf.f = f
	return nil
}

// encodePage serializes the live slots of rows[:used].
func encodePage(rows *[PageRows]Row, used int) (blob []byte, liveSlots int) {
	var count int
	for i := 0; i < used; i++ {
		if rows[i] != nil {
			count++
		}
	}
	b := make([]byte, 0, 64+count*32)
	b = binary.AppendUvarint(b, uint64(count))
	for i := 0; i < used; i++ {
		r := rows[i]
		if r == nil {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i))
		b = AppendRow(b, r)
	}
	return b, count
}

// decodePage reconstructs a slot array from a page record, returning
// the array and its accounted heap bytes.
func decodePage(blob []byte) (*[PageRows]Row, int64, error) {
	r := &ByteReader{Buf: blob}
	rows := new([PageRows]Row)
	nbytes := pageBaseBytes
	count := int(r.Uvarint())
	for i := 0; i < count && r.Err == nil; i++ {
		slot := int(r.Uvarint())
		arity := int(r.Uvarint())
		if r.Err != nil || slot < 0 || slot >= PageRows {
			return nil, 0, fmt.Errorf("storage: bad slot in page record")
		}
		row := make(Row, 0, arity)
		for j := 0; j < arity && r.Err == nil; j++ {
			row = append(row, DecodeValue(r))
		}
		rows[slot] = row
		nbytes += rowHeapBytes(row)
	}
	if r.Err != nil {
		return nil, 0, r.Err
	}
	if r.Off != len(blob) {
		return nil, 0, fmt.Errorf("storage: %d trailing bytes in page record", len(blob)-r.Off)
	}
	return rows, nbytes, nil
}

// write appends a page record for the frame. ref is the frame's
// previous record (nil on first spill); on success the returned ref
// (same identity when non-nil) points at the new record and the old
// bytes are garbage. compacted is the number of allocated-but-dead
// slots the rewrite dropped.
func (sf *spillFile) write(ref *diskRef, p *rowPage, rows *[PageRows]Row, used int) (*diskRef, int, error) {
	blob, liveSlots := encodePage(rows, used)
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if err := sf.open(); err != nil {
		return nil, 0, err
	}
	off := sf.size
	if _, err := sf.f.WriteAt(blob, off); err != nil {
		return nil, 0, err
	}
	sf.size += int64(len(blob))
	if ref != nil {
		sf.garbage += int64(ref.n)
		sf.live -= int64(ref.n)
		ref.off, ref.n = off, int32(len(blob))
	} else {
		ref = &diskRef{off: off, n: int32(len(blob))}
		sf.refs[ref] = weak.Make(p)
	}
	sf.live += int64(len(blob))
	if sf.garbage > spillCompactMin && sf.garbage > sf.size/2 {
		// Compaction failure is not data loss — the old file stays
		// intact — so the error is dropped and garbage carries over.
		_ = sf.compactLocked()
	}
	return ref, used - liveSlots, nil
}

// read loads the record at ref into a fresh slot array.
func (sf *spillFile) read(ref *diskRef) (*[PageRows]Row, int64, error) {
	sf.mu.Lock()
	if err := sf.open(); err != nil {
		sf.mu.Unlock()
		return nil, 0, err
	}
	blob := make([]byte, ref.n)
	_, err := sf.f.ReadAt(blob, ref.off)
	sf.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return decodePage(blob)
}

// compactLocked rewrites the file with only the records still
// referenced by a live frame, dropping records whose frame was
// garbage-collected (dead snapshots) and superseded record versions.
// Frame disk refs are updated in place under the file mutex, which
// excludes concurrent reads and writes.
func (sf *spillFile) compactLocked() error {
	tmpPath := sf.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	var newSize int64
	type move struct {
		ref    *diskRef
		newOff int64
	}
	moves := make([]move, 0, len(sf.refs))
	for ref, wp := range sf.refs {
		if wp.Value() == nil {
			delete(sf.refs, ref)
			continue
		}
		blob := make([]byte, ref.n)
		if _, err := sf.f.ReadAt(blob, ref.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		if _, err := tmp.WriteAt(blob, newSize); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		moves = append(moves, move{ref, newSize})
		newSize += int64(len(blob))
	}
	if err := os.Rename(tmpPath, sf.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	sf.f.Close()
	sf.f = tmp
	for _, m := range moves {
		m.ref.off = m.newOff
	}
	sf.size = newSize
	sf.live = newSize
	sf.garbage = 0
	sf.compactions++
	return nil
}
