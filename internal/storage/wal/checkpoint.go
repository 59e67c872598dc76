package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sqlcheck/internal/storage"
)

// Checkpoint file: a single heap file holding every tenant's encoded
// snapshot plus the LSN watermarks that make replay idempotent. The
// file is written to a temp name, fsynced, and renamed over the live
// name, so a crash mid-checkpoint leaves the previous checkpoint (or
// none) intact; the WAL segments it supersedes are pruned only after
// the rename lands.
//
// Layout:
//
//	8-byte magic "SQCKPT01"
//	uvarint registryLSN          — last registry op reflected here
//	uvarint tenant count
//	per tenant: name, uvarint dbLSN, uvarint blobLen, blob
//	u32 CRC-32C over everything above
const checkpointMagic = "SQCKPT01"

const checkpointFile = "checkpoint"

// checkpointEntry is one tenant as read back from a checkpoint: its
// state blob and the LSN of the last log record that state reflects.
type checkpointEntry struct {
	name string
	lsn  uint64
	blob []byte
}

type checkpoint struct {
	registryLSN uint64
	entries     []checkpointEntry
}

// namedDB is one tenant handed to writeCheckpoint.
type namedDB struct {
	name string
	db   *storage.Database
}

// writeCheckpoint streams a checkpoint of tenants (in the order
// given) to a temp file, then fsyncs it and renames it over the live
// name. Each tenant is captured as a COW snapshot right before it is
// encoded, and every encoding reuses one buffer, so the heap holds a
// single tenant's encoding and a 64 KiB write buffer however large
// the registry is. The CRC is computed over the bytes as they are
// written.
func writeCheckpoint(dir string, registryLSN uint64, tenants []namedDB) error {
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := streamCheckpoint(f, registryLSN, tenants); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// streamCheckpoint writes the checkpoint layout to f: everything up
// to the CRC through a buffer that also feeds the CRC, then the CRC.
func streamCheckpoint(f io.Writer, registryLSN uint64, tenants []namedDB) error {
	crc := crc32.New(castagnoli)
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 64<<10)
	hdr := append(make([]byte, 0, 64), checkpointMagic...)
	hdr = binary.AppendUvarint(hdr, registryLSN)
	hdr = binary.AppendUvarint(hdr, uint64(len(tenants)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var blob []byte
	for _, t := range tenants {
		snap := t.db.Snapshot()
		blob = appendDatabase(blob[:0], snap)
		hdr = storage.AppendString(hdr[:0], t.name)
		hdr = binary.AppendUvarint(hdr, snap.DurableLSN())
		hdr = binary.AppendUvarint(hdr, uint64(len(blob)))
		// A bufio.Writer's error is sticky: a failed header write is
		// reported by the blob write that follows it.
		w.Write(hdr)
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	_, err := f.Write(binary.LittleEndian.AppendUint32(hdr[:0], crc.Sum32()))
	return err
}

// readCheckpoint loads and validates the checkpoint; ok=false when
// none exists. A checkpoint that fails validation is an error, not a
// warning: unlike a torn WAL tail (expected after a crash), the
// checkpoint was fsynced before the WAL it supersedes was pruned, so
// corruption here means the state cannot be reconstructed and serving
// an empty registry would silently drop tenants.
func readCheckpoint(dir string) (*checkpoint, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if len(b) < len(checkpointMagic)+4 || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, false, fmt.Errorf("wal: checkpoint file is not a checkpoint (bad magic)")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, false, fmt.Errorf("wal: checkpoint file failed CRC validation")
	}
	r := &storage.ByteReader{Buf: body, Off: len(checkpointMagic)}
	cp := &checkpoint{registryLSN: r.Uvarint()}
	n := int(r.Uvarint())
	for i := 0; i < n && r.Err == nil; i++ {
		e := checkpointEntry{name: r.Str(), lsn: r.Uvarint()}
		blobLen := int(r.Uvarint())
		if r.Err == nil && (blobLen < 0 || r.Off+blobLen > len(r.Buf)) {
			r.Fail()
		}
		if r.Err == nil {
			e.blob = body[r.Off : r.Off+blobLen]
			r.Off += blobLen
		}
		cp.entries = append(cp.entries, e)
	}
	if r.Err != nil {
		return nil, false, fmt.Errorf("wal: malformed checkpoint: %w", r.Err)
	}
	if r.Off != len(body) {
		return nil, false, fmt.Errorf("wal: %d trailing bytes in checkpoint", len(body)-r.Off)
	}
	return cp, true, nil
}

// syncDir fsyncs a directory so renames and removals within it are
// durable. Best-effort on platforms where directories reject fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
