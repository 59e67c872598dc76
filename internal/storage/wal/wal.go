// Package wal makes the named-database registry durable: an
// append-only write-ahead log of registry DDL/DML (register, exec
// statements, unregister) with CRC-framed records and group-commit
// fsync batching, periodic checkpoints that serialize copy-on-write
// snapshots to a heap file and prune the log, and startup replay that
// reconstructs the registry from checkpoint + log tail.
//
// The durability contract is statement-granular and logical: a
// statement acknowledged to a caller has had its record fsynced (the
// executor's commit hook appends under the database writer lock and
// returns only after the covering group fsync), and recovery replays
// whole records only — a torn or corrupt tail fails its CRC and
// replay stops at the last valid record, so no statement is ever
// half-applied. Reads (snapshots, profiling, report serving) never
// touch the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Frame layout: every record is framed as
//
//	u32 payload length | u64 LSN | u32 CRC-32C(LSN bytes ++ payload) | payload
//
// LSNs are assigned at append time under the log mutex and are
// strictly increasing across segment files, which is what lets the
// scanner detect a duplicated tail record (its LSN is not greater
// than its predecessor's) and checkpoints skip already-applied
// records with an integer compare.
const (
	frameHeaderLen = 16
	// MaxRecordBytes bounds one record's payload; the scanner treats a
	// larger claimed length as corruption rather than allocating it.
	MaxRecordBytes = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLogClosed reports an append against a closed log.
var ErrLogClosed = errors.New("wal: log closed")

const segPrefix = "wal."

func segName(seq uint64) string { return fmt.Sprintf("%s%08d", segPrefix, seq) }

// log is the physical segmented append-only file. One goroutine (the
// syncer) owns every fsync and the segment rotation, so file
// lifecycle never races a batched sync; appenders write under mu and
// then wait for a group fsync covering their bytes.
type walLog struct {
	dir    string
	noSync bool

	mu      sync.Mutex
	f       *os.File
	seg     uint64
	nextLSN uint64
	closed  bool
	// pending counts appends that have written but not yet been
	// released by their covering fsync; Close waits for it to drain.
	pending int
	// rotating stalls new appends while rotate swaps segment files, so
	// the drain above terminates under sustained write load.
	rotating bool
	drained  *sync.Cond
	syncCh   chan chan error
	quitCh   chan struct{}
	syncDone sync.WaitGroup

	records atomic.Int64
}

// openLog opens the directory's last segment for appending (creating
// the first segment in an empty directory) and starts the syncer.
// nextLSN must be one past the highest LSN the caller scanned.
func openLog(dir string, nextLSN uint64, noSync bool) (*walLog, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &walLog{dir: dir, noSync: noSync, nextLSN: nextLSN, seg: 1}
	if len(segs) > 0 {
		l.seg = segs[len(segs)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(l.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	l.drained = sync.NewCond(&l.mu)
	l.syncCh = make(chan chan error, 64)
	l.quitCh = make(chan struct{})
	l.syncDone.Add(1)
	go l.syncer()
	return l, nil
}

// listSegments returns the directory's segment sequence numbers in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):], "%d", &seq); err == nil {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// newFrame returns an empty record buffer: frameHeaderLen reserved
// bytes for append to fill, and capacity for n payload bytes behind
// them.
func newFrame(n int) []byte { return make([]byte, frameHeaderLen, frameHeaderLen+n) }

// append fills in the header of one frame built by newFrame, writes
// it, then blocks until a group fsync covers it. Concurrent appenders
// coalesce onto one fsync: each waiting appender's bytes are on disk
// when the syncer's next f.Sync() returns, so a burst of N statements
// pays far fewer than N synchronous flushes.
func (l *walLog) append(frame []byte) (uint64, error) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))

	l.mu.Lock()
	for l.rotating && !l.closed {
		l.drained.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrLogClosed
	}
	lsn := l.nextLSN
	binary.LittleEndian.PutUint64(frame[4:12], lsn)
	crc := crc32.Update(0, castagnoli, frame[4:12])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(frame[12:16], crc)
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.nextLSN++
	l.pending++
	l.mu.Unlock()
	l.records.Add(1)

	var err error
	if !l.noSync {
		done := make(chan error, 1)
		l.syncCh <- done
		err = <-done
	}
	l.mu.Lock()
	l.pending--
	if l.pending == 0 {
		l.drained.Broadcast()
	}
	l.mu.Unlock()
	return lsn, err
}

// syncer is the single goroutine that runs fsyncs and rotations. It
// drains every queued request before syncing, so one disk flush
// releases the whole waiting batch (group commit).
func (l *walLog) syncer() {
	defer l.syncDone.Done()
	flush := func(first chan error) {
		batch := []chan error{first}
		for {
			select {
			case d := <-l.syncCh:
				batch = append(batch, d)
				continue
			default:
			}
			break
		}
		l.mu.Lock()
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		for _, d := range batch {
			d <- err
		}
	}
	for {
		select {
		case d := <-l.syncCh:
			flush(d)
		case <-l.quitCh:
			for {
				select {
				case d := <-l.syncCh:
					flush(d)
					continue
				default:
				}
				return
			}
		}
	}
}

// rotate fsyncs and closes the current segment and starts a fresh
// one. Called by the checkpointer before capturing tenant snapshots:
// everything a snapshot reflects is then in closed segments, which
// the checkpoint supersedes and prune may delete, while records
// racing the capture land in the new segment and replay on top.
func (l *walLog) rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	// Stall new appends, then drain in-flight group fsyncs: the syncer
	// must not hold the file we are about to close, and without the
	// stall the drain might never terminate under sustained DML.
	l.rotating = true
	defer func() {
		l.rotating = false
		l.drained.Broadcast()
	}()
	for l.pending > 0 {
		l.drained.Wait()
	}
	if l.closed {
		return ErrLogClosed
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seg++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

// prune removes every segment except the current one. Safe only
// after a checkpoint that covers the removed segments has been
// durably written (the caller's responsibility).
func (l *walLog) prune() error {
	l.mu.Lock()
	cur := l.seg
	l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s == cur {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(s))); err != nil {
			return err
		}
	}
	return nil
}

// close drains pending appends, stops the syncer, and closes the
// current segment. Appends racing close fail with ErrLogClosed.
func (l *walLog) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.drained.Broadcast() // release appenders stalled on a rotation
	for l.pending > 0 {
		l.drained.Wait()
	}
	f := l.f
	l.mu.Unlock()
	close(l.quitCh)
	l.syncDone.Wait()
	if !l.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// scanResult describes one directory scan: the records seen, where a
// corruption (if any) cut the scan short, and the highest valid LSN.
type scanResult struct {
	// MaxLSN is the highest LSN among valid records (0 when none).
	MaxLSN uint64
	// Valid counts frames that passed CRC and ordering checks.
	Valid int
	// Warning is non-empty when the scan stopped before the physical
	// end of the log: a truncated frame, a CRC mismatch, a duplicated
	// or out-of-order record, or an oversized claimed length.
	Warning string
	// corruptSeg/corruptOff locate the first invalid byte so recovery
	// can truncate the tail before appending; laterSegs lists segments
	// after the corrupt one (untrusted, removed by recovery).
	corruptSeg string
	corruptOff int64
	laterSegs  []string
}

// scanDir walks every segment in order, invoking fn for each valid
// record. It never returns an error for corruption — corruption ends
// the scan and is reported in the result — but fn may abort the scan
// by returning an error, which is passed through.
func scanDir(dir string, fn func(lsn uint64, payload []byte) error) (scanResult, error) {
	var res scanResult
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	var prevLSN uint64
	for si, seg := range segs {
		path := filepath.Join(dir, segName(seg))
		stop, err := scanSegment(path, &prevLSN, &res, fn)
		if err != nil {
			return res, err
		}
		if stop {
			for _, later := range segs[si+1:] {
				res.laterSegs = append(res.laterSegs, filepath.Join(dir, segName(later)))
			}
			break
		}
	}
	return res, nil
}

// scanSegment reads one segment's frames; returns stop=true when the
// segment ended in corruption (recorded in res).
func scanSegment(path string, prevLSN *uint64, res *scanResult, fn func(lsn uint64, payload []byte) error) (stop bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	corrupt := func(off int64, format string, args ...any) {
		res.Warning = fmt.Sprintf("%s at %s+%d", fmt.Sprintf(format, args...), filepath.Base(path), off)
		res.corruptSeg = path
		res.corruptOff = off
	}
	var off int64
	header := make([]byte, frameHeaderLen)
	var payload []byte
	for {
		n, rerr := io.ReadFull(f, header)
		if rerr == io.EOF {
			return false, nil // clean segment boundary
		}
		if rerr != nil {
			corrupt(off, "truncated record header (%d of %d bytes)", n, frameHeaderLen)
			return true, nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		lsn := binary.LittleEndian.Uint64(header[4:12])
		wantCRC := binary.LittleEndian.Uint32(header[12:16])
		if length > MaxRecordBytes {
			corrupt(off, "implausible record length %d", length)
			return true, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if n, rerr := io.ReadFull(f, payload); rerr != nil {
			corrupt(off, "truncated record payload (%d of %d bytes)", n, length)
			return true, nil
		}
		crc := crc32.Update(0, castagnoli, header[4:12])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			corrupt(off, "CRC mismatch on record lsn=%d", lsn)
			return true, nil
		}
		if lsn <= *prevLSN && res.Valid > 0 {
			corrupt(off, "duplicate or out-of-order record lsn=%d after lsn=%d", lsn, *prevLSN)
			return true, nil
		}
		*prevLSN = lsn
		res.MaxLSN = lsn
		res.Valid++
		if fn != nil {
			if err := fn(lsn, payload); err != nil {
				return false, err
			}
		}
		off += int64(frameHeaderLen) + int64(length)
	}
}

// truncateCorruptTail physically removes the invalid suffix a scan
// found, so the reopened log appends valid frames after the last
// valid record instead of burying them behind unreadable bytes.
func truncateCorruptTail(res scanResult) error {
	if res.corruptSeg == "" {
		return nil
	}
	if err := os.Truncate(res.corruptSeg, res.corruptOff); err != nil {
		return err
	}
	for _, later := range res.laterSegs {
		if err := os.Remove(later); err != nil {
			return err
		}
	}
	return nil
}
