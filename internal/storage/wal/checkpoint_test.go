package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sqlcheck/internal/corpus"
	"sqlcheck/internal/exec"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/storage"
)

// registerTenants registers the bench/e2e tenant-data registry on s:
// eight fixtures of 4 tables × 4000 rows, ~0.6 MiB encoded each. It
// returns them in name order, the order a checkpoint writes them.
func registerTenants(tb testing.TB, s *Store) []namedDB {
	tb.Helper()
	var out []namedDB
	for k := 1; k <= 8; k++ {
		name := fmt.Sprintf("tenant-%d", k)
		db := storage.NewDatabase(name)
		for _, stmt := range parser.ParseAll(corpus.TenantFixture(4000, 250, uint64(k))) {
			if _, err := exec.Run(db, stmt); err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
		}
		if err := s.Register(name, db); err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedDB{name, db})
	}
	return out
}

// TestCheckpointStreamsOneTenantAtATime pins the checkpoint file to
// the layout documented at the top of checkpoint.go, assembled here
// from per-tenant EncodeDatabase blobs, and bounds what one
// Checkpoint allocates by the largest tenant's encoding: a writer
// that held every tenant's encoding at once would allocate a multiple
// of the registry instead.
func TestCheckpointStreamsOneTenantAtATime(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testConfig(t))
	defer s.log.close()
	tenants := registerTenants(t, s)

	want := append([]byte(nil), checkpointMagic...)
	want = binary.AppendUvarint(want, s.lastRegistryLSN)
	want = binary.AppendUvarint(want, uint64(len(tenants)))
	largest, total := 0, 0
	for _, tn := range tenants {
		blob := EncodeDatabase(tn.db)
		largest = max(largest, len(blob))
		total += len(blob)
		want = storage.AppendString(want, tn.name)
		want = binary.AppendUvarint(want, tn.db.DurableLSN())
		want = binary.AppendUvarint(want, uint64(len(blob)))
		want = append(want, blob...)
	}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, castagnoli))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	runtime.ReadMemStats(&after)

	got, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint file (%d bytes) differs from the documented layout (%d bytes)", len(got), len(want))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint of %d tenants: %d bytes encoded (largest %d), %d bytes allocated (%.1fx the largest)",
		len(tenants), total, largest, alloc, float64(alloc)/float64(largest))
	if limit := 8 * uint64(largest); alloc > limit {
		t.Fatalf("one checkpoint allocated %d bytes, more than 8x the largest tenant's %d-byte encoding", alloc, largest)
	}
}

// BenchmarkCheckpoint measures one checkpoint of the tenant-data
// registry on a durable store: per op, every tenant is snapshotted,
// encoded and written, then the file is fsynced and renamed over the
// last one. Throughput is in bytes of tenant encoding. B/op is the
// figure the streaming writer holds down: it follows the largest
// tenant, not the registry.
func BenchmarkCheckpoint(b *testing.B) {
	s, _, err := Open(b.TempDir(), Config{CheckpointEvery: -1, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer s.log.close()
	var encoded int64
	for _, tn := range registerTenants(b, s) {
		encoded += int64(len(EncodeDatabase(tn.db)))
	}
	b.SetBytes(encoded)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegisterEncodesInItsFrame pins the register record to its
// layout — type, tenant name, state length, then EncodeDatabase's
// bytes, in a frame whose CRC the scanner verifies — and bounds what
// one Register allocates by the encoded state: the record must be
// built once, in its frame, not encoded into a growing buffer and
// copied into the record and again into the frame.
func TestRegisterEncodesInItsFrame(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testConfig(t))
	defer s.log.close()
	const name = "tenant-1"
	db := storage.NewDatabase(name)
	for _, stmt := range parser.ParseAll(corpus.TenantFixture(4000, 250, 1)) {
		if _, err := exec.Run(db, stmt); err != nil {
			t.Fatal(err)
		}
	}
	state := EncodeDatabase(db)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Register(name, db); err != nil {
		t.Fatalf("Register: %v", err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Register allocated %d bytes for a %d-byte state (%.2fx)", alloc, len(state), float64(alloc)/float64(len(state)))
	if alloc > 2*uint64(len(state)) {
		t.Errorf("Register allocated %.1fx the encoded state, want at most 2x", float64(alloc)/float64(len(state)))
	}

	want := storage.AppendString([]byte{byte(recRegister)}, name)
	want = binary.AppendUvarint(want, uint64(len(state)))
	want = append(want, state...)
	var got [][]byte
	if _, err := scanDir(dir, func(_ uint64, payload []byte) error {
		got = append(got, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("log holds %d records; want one register record of %d bytes in the documented layout", len(got), len(want))
	}
}
