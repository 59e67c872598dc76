package core

// Engine-level durability surface: opening a data directory attaches
// a wal.Store to the registry, which recovers the tenants a previous
// process registered and logs everything this process does to them.
// Durability is opt-in and entirely off the read path — workload
// serving, snapshotting, and report memoization never touch the log.

import (
	"sqlcheck/internal/storage/wal"
)

// RecoverySummary reports what OpenDurability reconstructed.
type RecoverySummary struct {
	// Databases is the recovered tenant count now in the registry.
	Databases int `json:"databases"`
	// FromCheckpoint counts tenants loaded from the checkpoint file.
	FromCheckpoint int `json:"from_checkpoint"`
	// Replayed counts WAL records applied on top of the checkpoint.
	Replayed int `json:"replayed"`
	// Warning is non-empty when replay stopped at a corrupt record;
	// the registry reflects everything up to the last valid one.
	Warning string `json:"warning,omitempty"`
}

// OpenDurability opens (creating if needed) a data directory, rebuilds
// the registry from its checkpoint and WAL, and routes every future
// registry mutation through the log. Must be called once, before the
// engine serves traffic; calling it on an engine that already has a
// store is an error in the caller (the public API prevents it).
func (e *Engine) OpenDurability(dir string, cfg wal.Config) (RecoverySummary, error) {
	store, info, err := wal.Open(dir, cfg)
	if err != nil {
		return RecoverySummary{}, err
	}
	e.registry.AttachStore(store, info.Databases)
	return RecoverySummary{
		Databases:      len(info.Databases),
		FromCheckpoint: info.CheckpointTenants,
		Replayed:       info.Replayed,
		Warning:        info.Warning,
	}, nil
}

// Checkpoint forces a synchronous checkpoint: every tenant's state is
// serialized to the checkpoint file and superseded WAL segments are
// pruned. A no-op (nil) without durability.
func (e *Engine) Checkpoint() error {
	if s := e.registry.Store(); s != nil {
		return s.Checkpoint()
	}
	return nil
}

// Close takes a final checkpoint and closes the WAL, then tears down
// the page cache's spill files (spilled state is rebuilt from the
// checkpoint on the next open, so nothing durable lives there). A
// no-op (nil) without durability or a page cache. Callers should
// quiesce exec traffic first.
func (e *Engine) Close() error {
	var err error
	if s := e.registry.Store(); s != nil {
		err = s.Close()
	}
	e.pageCache.Close()
	return err
}

// DurabilityStats snapshots the WAL and checkpoint counters for the
// metrics snapshot.
type DurabilityStats = wal.Stats

// durabilityStats snapshots the attached store, or nil without one.
func (e *Engine) durabilityStats() *DurabilityStats {
	s := e.registry.Store()
	if s == nil {
		return nil
	}
	st := s.Stats()
	return &st
}
