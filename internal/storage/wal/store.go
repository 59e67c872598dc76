package wal

import (
	"errors"
	"fmt"
	stdlog "log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlcheck/internal/exec"
	"sqlcheck/internal/storage"
)

// DefaultCheckpointEvery is the auto-checkpoint cadence when the
// configuration leaves it zero: a background checkpoint after this
// many log records, bounding replay work to O(delta).
const DefaultCheckpointEvery = 1024

// Config tunes a Store.
type Config struct {
	// CheckpointEvery is the number of appended records that triggers a
	// background checkpoint. 0 means DefaultCheckpointEvery; negative
	// disables automatic checkpoints (explicit Checkpoint/Close only).
	CheckpointEvery int
	// NoSync skips fsync on appends — test-only; a crash can lose
	// acknowledged statements.
	NoSync bool
	// Logf receives recovery warnings and background-checkpoint
	// failures; defaults to the standard library logger.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time view of durability counters, served as the
// durability object of the daemon's JSON metrics in field order.
type Stats struct {
	// Records counts WAL records appended by this process.
	Records int64 `json:"records"`
	// Replayed counts records applied during startup recovery.
	Replayed int64 `json:"replayed"`
	// Checkpoints counts checkpoints completed by this process.
	Checkpoints int64 `json:"checkpoints"`
	// SinceCheckpoint counts records appended since the last completed
	// (or started) checkpoint — the pending replay delta.
	SinceCheckpoint int64 `json:"since_checkpoint"`
	// LastCheckpointUnix is the completion time of the newest
	// checkpoint taken by this process (0 if none yet).
	LastCheckpointUnix int64 `json:"last_checkpoint_unix"`
	// AppendErrors counts commit-hook appends that failed: the
	// in-memory mutation stood but was not made durable.
	AppendErrors int64 `json:"append_errors"`
}

// RecoverInfo reports what Open reconstructed.
type RecoverInfo struct {
	// Databases maps tenant name to its recovered live handle, commit
	// hooks already installed. The caller (core.Registry) adopts these.
	Databases map[string]*storage.Database
	// CheckpointTenants counts tenants loaded from the checkpoint file.
	CheckpointTenants int
	// Replayed counts WAL records applied on top of the checkpoint.
	Replayed int
	// Warning is non-empty when replay stopped before the physical end
	// of the log (torn tail, CRC mismatch, duplicated record); the
	// state reflects every record up to the last valid one.
	Warning string
}

// Store is the durability layer for the registry: it owns the data
// directory (WAL segments + checkpoint file) and the commit hooks on
// registered databases. All methods are safe for concurrent use.
type Store struct {
	dir string
	cfg Config
	log *walLog

	// mu guards tenants and lastRegistryLSN. Lock order: the caller's
	// registry lock, then a database writer lock (register/unregister
	// paths), then mu, then the log's internals. Checkpoint never holds
	// mu while taking database locks.
	mu              sync.Mutex
	tenants         map[string]*storage.Database
	lastRegistryLSN uint64

	// ckptMu serializes checkpoints (background, explicit, and the
	// final one in Close).
	ckptMu      sync.Mutex
	ckptRunning atomic.Bool

	replayed     atomic.Int64
	checkpoints  atomic.Int64
	sinceCkpt    atomic.Int64
	appendErrors atomic.Int64
	lastCkptUnix atomic.Int64
}

// errReplayStopped marks a replay aborted by a statement that failed
// to re-execute — only loggable as a warning because the log only
// ever contains statements that succeeded once.
var errReplayStopped = errors.New("wal: replay stopped")

// Open opens (creating if necessary) the data directory, loads the
// checkpoint, replays the WAL tail, and returns the store plus the
// recovered registry contents. A corrupt WAL tail is truncated and
// reported via RecoverInfo.Warning and Logf; a corrupt checkpoint is
// a hard error (see readCheckpoint).
func Open(dir string, cfg Config) (*Store, *RecoverInfo, error) {
	if cfg.Logf == nil {
		cfg.Logf = stdlog.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, cfg: cfg, tenants: make(map[string]*storage.Database)}
	info := &RecoverInfo{Databases: make(map[string]*storage.Database)}

	cp, haveCkpt, err := readCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	var maxLSN uint64
	if haveCkpt {
		s.lastRegistryLSN = cp.registryLSN
		maxLSN = cp.registryLSN
		for _, e := range cp.entries {
			db, err := DecodeDatabase(e.blob)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: checkpoint tenant %q: %w", e.name, err)
			}
			db.SetDurableLSN(e.lsn)
			info.Databases[e.name] = db
			if e.lsn > maxLSN {
				maxLSN = e.lsn
			}
		}
		info.CheckpointTenants = len(cp.entries)
	}

	var replayWarn string
	res, scanErr := scanDir(dir, func(lsn uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			// A frame that passed CRC but fails logical decode is not
			// crash damage; refuse to guess at the remaining log.
			return fmt.Errorf("record lsn=%d: %w", lsn, err)
		}
		switch rec.typ {
		case recRegister:
			if lsn <= s.lastRegistryLSN {
				return nil // already reflected in the checkpoint
			}
			db, err := DecodeDatabase(rec.state)
			if err != nil {
				return fmt.Errorf("register record lsn=%d: %w", lsn, err)
			}
			db.SetDurableLSN(lsn)
			info.Databases[rec.name] = db
			s.lastRegistryLSN = lsn
			info.Replayed++
		case recUnregister:
			if lsn <= s.lastRegistryLSN {
				return nil
			}
			delete(info.Databases, rec.name)
			s.lastRegistryLSN = lsn
			info.Replayed++
		case recExec:
			db := info.Databases[rec.name]
			if db == nil {
				// Normal when the tenant was unregistered before the
				// checkpoint; anything else is a log inconsistency.
				if lsn > s.lastRegistryLSN {
					replayWarn = fmt.Sprintf("exec record lsn=%d targets unknown database %q", lsn, rec.name)
					return errReplayStopped
				}
				return nil
			}
			if lsn <= db.DurableLSN() {
				return nil // already reflected in the checkpoint state
			}
			if _, err := exec.RunSQL(db, rec.sql); err != nil {
				// The statement succeeded when logged; failing now means
				// the replay base diverged. Stop rather than half-apply
				// the remaining history onto a wrong state.
				replayWarn = fmt.Sprintf("replaying lsn=%d against %q: %v", lsn, rec.name, err)
				return errReplayStopped
			}
			db.SetDurableLSN(lsn)
			info.Replayed++
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
		return nil
	})
	if scanErr != nil && !errors.Is(scanErr, errReplayStopped) {
		return nil, nil, scanErr
	}
	if res.MaxLSN > maxLSN {
		maxLSN = res.MaxLSN
	}
	if res.Warning != "" {
		info.Warning = res.Warning
		cfg.Logf("wal: replay stopped at last valid record: %s", res.Warning)
		if err := truncateCorruptTail(res); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating corrupt tail: %w", err)
		}
	}
	if replayWarn != "" {
		info.Warning = replayWarn
		cfg.Logf("wal: replay stopped: %s", replayWarn)
	}

	l, err := openLog(dir, maxLSN+1, cfg.NoSync)
	if err != nil {
		return nil, nil, err
	}
	s.log = l
	for name, db := range info.Databases {
		db.SetCommitHook(s.hookFor(name, db))
		s.tenants[name] = db
	}
	s.replayed.Store(int64(info.Replayed))
	return s, info, nil
}

// Register makes a database durable: it appends a register record
// carrying the full encoded state (the database's pre-registration
// history is not in the log) and installs the commit hook that logs
// every subsequent mutating statement. Called with the registry lock
// held, before the database becomes visible to other goroutines.
func (s *Store) Register(name string, db *storage.Database) error {
	db.Lock()
	defer db.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := encodeRegister(name, db)
	if err != nil {
		return err
	}
	lsn, err := s.log.append(frame)
	if err != nil {
		return err
	}
	db.SetDurableLSN(lsn)
	db.SetCommitHook(s.hookFor(name, db))
	s.tenants[name] = db
	s.lastRegistryLSN = lsn
	s.bumpAndMaybeCheckpoint()
	return nil
}

// Unregister appends an unregister record and removes the commit
// hook. The record is appended under the database writer lock, so it
// serializes after every in-flight statement's exec record. An append
// failure is counted and logged but does not resurrect the tenant:
// the in-memory registry already dropped it, and memory wins.
func (s *Store) Unregister(name string, db *storage.Database) {
	db.Lock()
	defer db.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	db.SetCommitHook(nil)
	delete(s.tenants, name)
	lsn, err := s.log.append(encodeUnregister(name))
	if err != nil {
		s.appendErrors.Add(1)
		s.cfg.Logf("wal: unregister %q not logged: %v (tenant will reappear on recovery)", name, err)
		return
	}
	s.lastRegistryLSN = lsn
	s.bumpAndMaybeCheckpoint()
}

// hookFor builds the commit hook for one tenant. The executor calls
// it under the database writer lock after each successfully applied
// mutating statement; append's group fsync makes the acknowledgment
// durable, and the watermark update pairs the database state with the
// log position for the checkpointer.
func (s *Store) hookFor(name string, db *storage.Database) func(sql string) error {
	return func(sql string) error {
		lsn, err := s.log.append(encodeExec(name, sql))
		if err != nil {
			s.appendErrors.Add(1)
			return err
		}
		db.SetDurableLSN(lsn)
		s.bumpAndMaybeCheckpoint()
		return nil
	}
}

// bumpAndMaybeCheckpoint counts one appended record and kicks off a
// background checkpoint when the cadence is reached. The goroutine is
// the deadlock escape: the commit hook runs under a database writer
// lock, and Checkpoint needs to take those locks itself.
func (s *Store) bumpAndMaybeCheckpoint() {
	n := s.sinceCkpt.Add(1)
	every := s.cfg.CheckpointEvery
	if every < 0 {
		return
	}
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	if n < int64(every) {
		return
	}
	if s.ckptRunning.CompareAndSwap(false, true) {
		go func() {
			defer s.ckptRunning.Store(false)
			if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrLogClosed) {
				s.cfg.Logf("wal: background checkpoint failed: %v", err)
			}
		}()
	}
}

// Checkpoint serializes every tenant's state to the checkpoint file
// and prunes superseded WAL segments. It runs concurrently with exec
// traffic: rotation first moves new appends to a fresh segment, then
// each tenant is captured as a COW snapshot whose DurableLSN pairs
// atomically with the frozen pages — replay skips records at or below
// a tenant's watermark, so records racing the capture apply exactly
// once whether they landed before or after their tenant's snapshot.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Reset at the start: records appended during the capture window
	// may or may not be covered by this checkpoint, so counting them
	// toward the next cadence only errs toward an earlier checkpoint.
	s.sinceCkpt.Store(0)
	if err := s.log.rotate(); err != nil {
		return err
	}
	s.mu.Lock()
	registryLSN := s.lastRegistryLSN
	tenants := make([]namedDB, 0, len(s.tenants))
	for name, db := range s.tenants {
		tenants = append(tenants, namedDB{name, db})
	}
	s.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	if err := writeCheckpoint(s.dir, registryLSN, tenants); err != nil {
		return err
	}
	if err := s.log.prune(); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	s.lastCkptUnix.Store(time.Now().Unix())
	return nil
}

// Close takes a final checkpoint (so the next start replays nothing)
// and closes the log. Callers should quiesce exec traffic first:
// statements racing Close may get a durability error from their
// commit hook once the log is closed.
func (s *Store) Close() error {
	ckptErr := s.Checkpoint()
	if errors.Is(ckptErr, ErrLogClosed) {
		ckptErr = nil
	}
	if err := s.log.close(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	return ckptErr
}

// Stats returns a point-in-time view of the durability counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:            s.log.records.Load(),
		Replayed:           s.replayed.Load(),
		Checkpoints:        s.checkpoints.Load(),
		SinceCheckpoint:    s.sinceCkpt.Load(),
		LastCheckpointUnix: s.lastCkptUnix.Load(),
		AppendErrors:       s.appendErrors.Load(),
	}
}
