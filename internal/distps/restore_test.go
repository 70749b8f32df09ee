package distps

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// goldenVersion is the version testdata/shard.golden was written as.
const goldenVersion = 5

// testShard boots shard 0 of a one-shard cluster of two small tables in
// dir. It serves no listener: tests call its handlers directly.
func testShard(t testing.TB, dir string) *Shard {
	t.Helper()
	s, err := NewShard(ShardConfig{ID: 0, NumShards: 1, Dim: 4, Seed: 7,
		Tables: []TableSpec{{Index: 0, Rows: 10}, {Index: 3, Rows: 6}}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenShard is testShard after one push under each of two lease epochs,
// checkpointed as goldenVersion: its file carries two writer entries and
// both tables.
func goldenShard(t testing.TB, dir string) *Shard {
	t.Helper()
	s := testShard(t, dir)
	for _, m := range []pushMsg{
		{Epoch: 1, Seq: 3, Table: 0, Rows: []int{2, 7}, Dim: 4, Delta: []float32{0.5, -1, 0.25, 2, 1, 1, -0.5, 0}},
		{Epoch: 2, Seq: 1, Table: 3, Rows: []int{5}, Dim: 4, Delta: []float32{-2, 0.125, 3, 1}},
	} {
		if _, err := s.push(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.checkpointRPC(versionMsg{Epoch: 2, Version: goldenVersion}); err != nil {
		t.Fatal(err)
	}
	return s
}

// shardState is what a restore may replace: each table's rows, the
// writers' last sequence numbers, the version and the restored flag.
type shardState struct {
	tables   map[int][]float32
	lastSeq  map[uint64]uint64
	version  int64
	restored bool
}

func snapshot(s *Shard) shardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := shardState{tables: map[int][]float32{}, lastSeq: maps.Clone(s.lastSeq), version: s.version, restored: s.restored}
	for idx, t := range s.tables {
		st.tables[idx] = slices.Clone(t.data)
	}
	return st
}

func (a shardState) equal(b shardState) bool {
	return maps.EqualFunc(a.tables, b.tables, slices.Equal[[]float32]) && maps.Equal(a.lastSeq, b.lastSeq) &&
		a.version == b.version && a.restored == b.restored
}

// restoreFile writes b as s's checkpoint of version v and restores it,
// returning the bytes the restore allocated and its error.
func restoreFile(t testing.TB, s *Shard, v int64, b []byte) (uint64, error) {
	t.Helper()
	if err := os.WriteFile(s.ckptPath(v), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.mu.Lock()
	err := s.restoreLocked(v)
	s.mu.Unlock()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is what restoring an n-byte file may allocate: reading it,
// the rows and writer entries it holds, and a fixed allowance for the file
// handle, the maps and an error's text.
func allocBound(n int) uint64 { return 8*uint64(n) + 64<<10 }

// checkRestore holds one restore of b to the decoder's contract: a clean
// verdict, state untouched on failure, allocation bounded by the file.
func checkRestore(t testing.TB, s *Shard, b []byte) error {
	t.Helper()
	before := snapshot(s)
	alloc, err := restoreFile(t, s, goldenVersion, b)
	if err != nil {
		if !errors.Is(err, checkpoint.ErrCorruptCheckpoint) && !errors.Is(err, errSpecMismatch) {
			t.Fatalf("restore of %d bytes: err = %v, want ErrCorruptCheckpoint or errSpecMismatch", len(b), err)
		}
		if !snapshot(s).equal(before) {
			t.Fatalf("a failed restore (%v) changed the shard", err)
		}
	}
	if alloc > allocBound(len(b)) {
		t.Fatalf("restoring %d bytes allocated %d bytes, bound %d", len(b), alloc, allocBound(len(b)))
	}
	return err
}

// TestShardGoldenFile pins the shard format: testdata/shard.golden was
// written by the shard writer that preceded internal/codec. The writer
// reproduces it byte for byte, and a fresh shard restores it to the state
// that wrote it.
func TestShardGoldenFile(t *testing.T) {
	want, err := os.ReadFile("testdata/shard.golden")
	if err != nil {
		t.Fatal(err)
	}
	src := goldenShard(t, t.TempDir())
	got, err := os.ReadFile(src.ckptPath(goldenVersion))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the writer's %d bytes differ from the %d golden bytes", len(got), len(want))
	}
	dst := testShard(t, t.TempDir())
	if err := checkRestore(t, dst, want); err != nil {
		t.Fatal(err)
	}
	if !snapshot(dst).equal(snapshot(src)) {
		t.Fatal("the restored shard differs from the one that wrote the file")
	}
}

// writerCountAt is the offset of the shard file's writer count: magic,
// format version, shard id, shard count, dim, seed and version come first.
const writerCountAt = 4 + 1 + 4 + 4 + 4 + 8 + 8

// TestShardRestoreRefusesHugeCounts sets each count field of the golden
// file, then all of them, to 2³²−1: every restore is a clean
// ErrCorruptCheckpoint that leaves the shard as it was and allocates
// within allocBound of the file's size. The first case is the 37-byte file
// whose writer count once sized a 151 MB map; FuzzShardRestore keeps it as
// a seed.
func TestShardRestoreRefusesHugeCounts(t *testing.T) {
	golden, err := os.ReadFile("testdata/shard.golden")
	if err != nil {
		t.Fatal(err)
	}
	// Two 16-byte writer entries follow the writer count; each table record
	// is an index (4), a row count (8), an owned-row count (4) and its rows.
	tableCountAt := writerCountAt + 4 + 2*16
	s := goldenShard(t, t.TempDir())
	ownedAt := []int{tableCountAt + 4 + 12}
	ownedAt = append(ownedAt, ownedAt[0]+4+len(s.tables[0].data)*4+12)
	fact5 := append(slices.Clone(golden[:writerCountAt]), 0, 0, 0x40, 0) // writer count 2²²
	cases := map[string][]byte{"37 bytes, writer count 2^22": fact5}
	all := slices.Clone(golden)
	for name, at := range map[string]int{"writer count": writerCountAt, "table count": tableCountAt,
		"table 0 owned rows": ownedAt[0], "table 3 owned rows": ownedAt[1]} {
		b := slices.Clone(golden)
		binary.LittleEndian.PutUint32(b[at:], ^uint32(0))
		binary.LittleEndian.PutUint32(all[at:], ^uint32(0))
		cases[name] = b
	}
	cases["every count"] = all
	for name, b := range cases {
		if err := checkRestore(t, s, b); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}

// FuzzShardRestore writes arbitrary bytes as a shard's checkpoint and
// restores it: the verdict is nil, ErrCorruptCheckpoint or
// errSpecMismatch; a failed restore leaves the tables, writer entries and
// version as they were; and the restore allocates within allocBound of
// the file's size.
func FuzzShardRestore(f *testing.F) {
	golden, err := os.ReadFile("testdata/shard.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	s := goldenShard(f, f.TempDir())
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRestore(t, s, b)
	})
}

// TestTornShardCheckpointRefused: a restarted shard whose checkpoint was
// cut short refuses restoreAll to that version. No older version is tried:
// the shard stays unrestored, with its in-memory state untouched, and the
// worker's recovery round fails and is retried.
func TestTornShardCheckpointRefused(t *testing.T) {
	sc := testScenario()
	cfg := sc.ShardConfig(0, 1, t.TempDir())
	cfg.DrainTimeout = 50 * time.Millisecond
	s1, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.checkpointRPC(versionMsg{Version: 4}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s1.ckptPath(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s1.ckptPath(4), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveShard(s2, ln)
	c := newTestClient(t, sc, []string{ln.Addr().String()}, 1)
	before := snapshot(s2)
	if before.restored {
		t.Fatal("a restarted shard came up restored")
	}
	if err := c.restoreAll(context.Background(), 4); err == nil {
		t.Fatal("RestoreAll of a torn checkpoint succeeded")
	}
	if !snapshot(s2).equal(before) {
		t.Fatal("a failed RestoreAll changed the shard")
	}
}
