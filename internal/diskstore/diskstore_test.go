package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

func block(bs int, fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }

func openTemp(t *testing.T, slots int64, blockSize int, opts Options) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"), "s", slots, blockSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDiskStoreBatchContract runs the shared backend conformance suite
// (duplicate-index last-writer-wins, exchange read-after-write, wrapped
// ErrOutOfRange) that MemStore and the remote client also run.
func TestDiskStoreBatchContract(t *testing.T) {
	storetest.TestBatchContract(t, "disk", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.BatchStore {
		return openTemp(t, slots, blockSize, Options{Meter: m})
	})
}

// TestFreshStoreReadsZeros checks the sparse-create trick: a never-written
// slot must validate its (XOR-masked) checksum and read as a zero block.
func TestFreshStoreReadsZeros(t *testing.T) {
	s := openTemp(t, 16, 64, Options{})
	blk, err := s.Read(15)
	if err != nil {
		t.Fatalf("read of fresh slot: %v", err)
	}
	if !bytes.Equal(blk, make([]byte, 64)) {
		t.Fatalf("fresh slot is not zero: %v", blk[:8])
	}
}

// TestPersistenceAcrossReopen writes batches, closes cleanly, reopens, and
// expects every block back — with geometry and name recovered from the
// header alone.
func TestPersistenceAcrossReopen(t *testing.T) {
	base := filepath.Join(t.TempDir(), "tbl.data")
	s, err := OpenStore(base, "tbl.data", 32, 48, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMany([]int64{0, 7, 31}, [][]byte{block(48, 1), block(48, 7), block(48, 31)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exchange(nil, []int64{7}, [][]byte{block(48, 77)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Geometry zero: everything must come from the segment header.
	r, err := OpenStore(base, "", 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "tbl.data" || r.Len() != 32 || r.BlockSize() != 48 {
		t.Fatalf("recovered geometry %q %d×%d", r.Name(), r.Len(), r.BlockSize())
	}
	for idx, fill := range map[int64]byte{0: 1, 7: 77, 31: 31, 16: 0} {
		blk, err := r.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d): %v", idx, err)
		}
		if blk[0] != fill {
			t.Fatalf("slot %d: fill %#x, want %#x", idx, blk[0], fill)
		}
	}
}

// TestGeometryMismatchRejected checks reopen validation against the header.
func TestGeometryMismatchRejected(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenStore(base, "s", 9, 32, Options{}); err == nil {
		t.Fatal("slot mismatch accepted")
	}
	if _, err := OpenStore(base, "s", 8, 16, Options{}); err == nil {
		t.Fatal("block-size mismatch accepted")
	}
	if _, err := OpenStore(base, "other", 8, 32, Options{}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

// writeV1Segment crafts a version-1 (CRC-prefixed-slot) segment file by
// hand, as the pre-v2 code wrote them: sparse all-zero slot region, which
// the XOR-masked checksum validates without initialization.
func writeV1Segment(t *testing.T, path, name string, slots int64, blockSize int) {
	t.Helper()
	hdr := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersionCRC)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(slots))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(blockSize))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(name)))
	copy(hdr[24:], name)
	crc := crc32.Checksum(hdr[:24+len(name)], crcTable)
	binary.LittleEndian.PutUint32(hdr[24+len(name):], crc)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(segHeaderSize + slots*int64(4+blockSize)); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyV1SegmentOpens checks the on-disk compatibility promise: a
// segment written by the version-1 (per-slot CRC) code opens, serves reads
// and CRC-maintained writes, and keeps its version across reopens.
func TestLegacyV1SegmentOpens(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	writeV1Segment(t, base+segSuffix, "s", 8, 32)
	s, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatalf("opening v1 segment: %v", err)
	}
	if s.ver != segVersionCRC {
		t.Fatalf("opened as version %d, want %d", s.ver, segVersionCRC)
	}
	if blk, err := s.Read(5); err != nil || blk[0] != 0 {
		t.Fatalf("fresh v1 slot: %v, %v", blk, err)
	}
	if err := s.Write(3, block(32, 9)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := OpenStore(base, "", 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ver != segVersionCRC {
		t.Fatalf("reopened as version %d, want %d", r.ver, segVersionCRC)
	}
	if blk, err := r.Read(3); err != nil || blk[0] != 9 {
		t.Fatalf("v1 slot after reopen: %v, %v", blk, err)
	}
}

// TestCorruptSlotDetected flips one payload byte behind a version-1 store's
// back and expects ErrCorrupt on read. (Version-2 slots carry no store-level
// checksum: bit rot there is caught by the GCM tag when the sealer opens the
// block, which is why the v1 check could be retired.)
func TestCorruptSlotDetected(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	writeV1Segment(t, base+segSuffix, "s", 8, 32)
	s, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, block(32, 9)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(base+segSuffix, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in slot 3's payload (skip the 4-byte slot CRC).
	if _, err := f.WriteAt([]byte{0xFF}, segHeaderSize+3*(4+32)+4+10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt slot read: %v, want ErrCorrupt", err)
	}
	if blk, err := r.Read(2); err != nil || blk[0] != 0 {
		t.Fatalf("neighbor slot: %v, %v", blk, err)
	}
}

// TestWALReplayAfterDirtyClose simulates a crash by never closing the first
// handle: committed batches live only in the WAL-plus-unsynced-segment
// state, and a reopen must replay them.
func TestWALReplayAfterDirtyClose(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 16, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMany([]int64{1, 2, 1}, [][]byte{block(32, 1), block(32, 2), block(32, 3)}); err != nil {
		t.Fatal(err)
	}
	// Abandon s without Close: the OS file data persists (same process),
	// modeling a kill after the commit calls returned.
	r, err := OpenStore(base, "s", 16, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Recoveries != 1 || st.RecoveredRecords != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	blk, err := r.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 3 {
		t.Fatalf("replayed duplicate-index batch: slot 1 fill %#x, want 0x3 (last writer)", blk[0])
	}
}

// TestGroupCommitFsyncCadence checks the SyncEvery knob: k batch commits
// cost one WAL fsync, not k.
func TestGroupCommitFsyncCadence(t *testing.T) {
	s := openTemp(t, 8, 32, Options{SyncEvery: 4})
	base := s.Stats().WALFsyncs
	for i := 0; i < 8; i++ {
		if err := s.Write(int64(i%8), block(32, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if got := st.WALFsyncs - base; got != 2 {
		t.Fatalf("8 commits at SyncEvery=4 cost %d WAL fsyncs, want 2", got)
	}
	if st.WALRecords != 8 {
		t.Fatalf("WAL records: %d, want 8", st.WALRecords)
	}
}

// TestCheckpointBoundsWAL checks that the log never outgrows the checkpoint
// threshold by more than one record and that data survives checkpoints.
func TestCheckpointBoundsWAL(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 64, Options{CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Write(int64(i%8), block(64, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("no checkpoints after %d bytes of WAL: %+v", st.WALBytes, st)
	}
	s.Close()
	wst, err := os.Stat(base + walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Size() != walHeaderSize {
		t.Fatalf("closed WAL is %d bytes, want %d", wst.Size(), walHeaderSize)
	}
	r, err := OpenStore(base, "s", 8, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if blk, _ := r.Read(3); blk[0] != 20 {
		t.Fatalf("slot 3 after checkpointed run: fill %d, want 20", blk[0])
	}
	if r.Stats().Recoveries != 0 {
		t.Fatalf("clean close still triggered recovery: %+v", r.Stats())
	}
}

// TestClosedStoreErrors checks the Close lifecycle.
func TestClosedStoreErrors(t *testing.T) {
	s := openTemp(t, 4, 16, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := s.Write(0, block(16, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

// TestDirRecoversAllStores provisions stores through the Opener, closes the
// dir, and expects a fresh Dir to list and serve them all.
func TestDirRecoversAllStores(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := d.Opener()
	names := []string{"t1.data", "t1.idx.k", "weird/name:with spaces"}
	for i, n := range names {
		st, err := open(n, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Write(0, block(32, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Same name, same geometry: reused, contents intact.
	st, err := open("t1.data", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if blk, _ := st.Read(0); blk[0] != 1 {
		t.Fatalf("reused store lost contents: %v", blk[:2])
	}
	// Same name, different geometry: rejected.
	if _, err := open("t1.data", 16, 32); err == nil {
		t.Fatal("geometry clash accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Names()
	if len(got) != len(names) {
		t.Fatalf("recovered %v, want %d stores", got, len(names))
	}
	for i, n := range names {
		st := r.Get(n)
		if st == nil {
			t.Fatalf("store %q not recovered (have %v)", n, got)
		}
		if blk, err := st.Read(0); err != nil || blk[0] != byte(i+1) {
			t.Fatalf("store %q slot 0: %v, %v", n, blk, err)
		}
	}
}

// TestEscapeNameInjective pins the escaping used for file names.
func TestEscapeNameInjective(t *testing.T) {
	names := []string{"a b", "a%20b", "a/b", "a%2Fb", "a.b", "A.b", "%", "%%"}
	seen := map[string]string{}
	for _, n := range names {
		e := escapeName(n)
		if prev, dup := seen[e]; dup {
			t.Fatalf("escape collision: %q and %q both map to %q", prev, n, e)
		}
		seen[e] = n
		for _, c := range []byte(e) {
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				c == '.' || c == '-' || c == '_' || c == '%'
			if !ok {
				t.Fatalf("escape of %q contains unsafe byte %q", n, c)
			}
		}
	}
}

// TestMeterAccounting checks the disk backend meters exactly like MemStore:
// one round per batch, per-block transfer counts.
func TestMeterAccounting(t *testing.T) {
	m := storage.NewMeter()
	s := openTemp(t, 8, 32, Options{Meter: m})
	if err := s.WriteMany([]int64{0, 1, 2}, [][]byte{block(32, 1), block(32, 2), block(32, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadMany(nil, []int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exchange(nil, []int64{3}, [][]byte{block(32, 4)}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.NetworkRounds != 3 {
		t.Fatalf("rounds: %d, want 3 (write batch, read batch, exchange)", st.NetworkRounds)
	}
	if st.BlockWrites != 4 || st.BlockReads != 3 {
		t.Fatalf("blocks: %d written %d read, want 4/3", st.BlockWrites, st.BlockReads)
	}
}
