// Package storetest holds the conformance suite every storage.BatchStore
// backend shares. MemStore, the disk-backed store, and the remote client
// all run the same assertions, so contracts the layers above rely on —
// last-writer-wins duplicate-index batches, read-after-write exchanges,
// ErrOutOfRange wrapping with index and store name, and the caller-owned
// read buffer (dst) of ReadMany and Exchange — cannot silently
// diverge between the simulated, persistent, and networked backends. The
// WAL replay path in particular re-applies logged batches verbatim and is
// only correct because live application agrees on this ordering.
package storetest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"oblivjoin/internal/storage"
)

// Factory builds a fresh store for one subtest with the given geometry.
// When m is non-nil the factory wires it as the store's traffic meter, so
// the suite can check which operations record rounds; a backend whose
// meter is fixed elsewhere (a pool-wide meter, a store shared with a rival
// session) may ignore it, which leaves the round assertions vacuous.
type Factory func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.BatchStore

// block builds a recognizable blockSize-byte payload.
func block(blockSize int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, blockSize)
}

// blockAt returns block k of a batch read back to back into buf.
func blockAt(buf []byte, k, blockSize int) []byte {
	return buf[k*blockSize : (k+1)*blockSize]
}

// TestBatchContract runs the shared BatchStore conformance suite against
// one backend.
func TestBatchContract(t *testing.T, name string, mk Factory) {
	t.Run(name+"/duplicate-index-last-writer-wins", func(t *testing.T) {
		testDuplicateIndexWriteMany(t, mk)
	})
	t.Run(name+"/duplicate-index-exchange", func(t *testing.T) {
		testDuplicateIndexExchange(t, mk)
	})
	t.Run(name+"/read-after-write-exchange", func(t *testing.T) {
		testExchangeReadAfterWrite(t, mk)
	})
	t.Run(name+"/out-of-range-wrapping", func(t *testing.T) {
		testOutOfRange(t, mk)
	})
	t.Run(name+"/empty-batches", func(t *testing.T) {
		testEmptyBatches(t, mk)
	})
	t.Run(name+"/dst-prefix-kept", func(t *testing.T) {
		testDstPrefixKept(t, mk)
	})
	t.Run(name+"/dst-grows", func(t *testing.T) {
		testDstGrows(t, mk)
	})
	t.Run(name+"/dst-is-a-copy", func(t *testing.T) {
		testDstIsCopy(t, mk)
	})
}

func testDuplicateIndexWriteMany(t *testing.T, mk Factory) {
	const bs = 32
	s := mk(t, 8, bs, nil)
	// Slot 3 appears three times; position order must decide, so 0xCC wins.
	err := s.WriteMany(
		[]int64{3, 1, 3, 5, 3},
		[][]byte{block(bs, 0xAA), block(bs, 0x11), block(bs, 0xBB), block(bs, 0x55), block(bs, 0xCC)})
	if err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	want := map[int64]byte{1: 0x11, 3: 0xCC, 5: 0x55}
	for idx, fill := range want {
		got, err := s.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d): %v", idx, err)
		}
		if !bytes.Equal(got, block(bs, fill)) {
			t.Fatalf("slot %d: got %#x..., want fill %#x", idx, got[0], fill)
		}
	}
	// A repeated read index yields the same bytes at each of its positions.
	buf, err := s.ReadMany(nil, []int64{3, 3, 1})
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	if len(buf) != 3*bs {
		t.Fatalf("duplicate read batch: %d bytes, want %d", len(buf), 3*bs)
	}
	b0, b1, b2 := blockAt(buf, 0, bs), blockAt(buf, 1, bs), blockAt(buf, 2, bs)
	if !bytes.Equal(b0, block(bs, 0xCC)) || !bytes.Equal(b1, b0) || !bytes.Equal(b2, block(bs, 0x11)) {
		t.Fatalf("duplicate read batch: got fills %#x %#x %#x", b0[0], b1[0], b2[0])
	}
}

func testDuplicateIndexExchange(t *testing.T, mk Factory) {
	const bs = 32
	x, ok := mk(t, 8, bs, nil).(storage.ExchangeStore)
	if !ok {
		t.Skip("backend does not implement ExchangeStore")
	}
	got, err := x.Exchange(nil,
		[]int64{2, 2, 4},
		[][]byte{block(bs, 0x01), block(bs, 0x02), block(bs, 0x44)},
		[]int64{2, 4, 2})
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(got) != 3*bs {
		t.Fatalf("exchange read: %d bytes, want %d", len(got), 3*bs)
	}
	if !bytes.Equal(blockAt(got, 0, bs), block(bs, 0x02)) {
		t.Fatalf("duplicate exchange write: slot 2 fill %#x, want 0x02 (last writer)", got[0])
	}
	if !bytes.Equal(blockAt(got, 1, bs), block(bs, 0x44)) {
		t.Fatalf("exchange read: slot 4 fill %#x, want 0x44", got[bs])
	}
	if !bytes.Equal(blockAt(got, 2, bs), blockAt(got, 0, bs)) {
		t.Fatal("exchange read: repeated index yielded different bytes")
	}
}

func testExchangeReadAfterWrite(t *testing.T, mk Factory) {
	const bs = 16
	x, ok := mk(t, 4, bs, nil).(storage.ExchangeStore)
	if !ok {
		t.Skip("backend does not implement ExchangeStore")
	}
	// Every write must be visible to the same exchange's reads.
	got, err := x.Exchange(nil, []int64{0, 1}, [][]byte{block(bs, 0x10), block(bs, 0x20)}, []int64{1, 0})
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if !bytes.Equal(blockAt(got, 0, bs), block(bs, 0x20)) || !bytes.Equal(blockAt(got, 1, bs), block(bs, 0x10)) {
		t.Fatalf("exchange reads saw stale data: fills %#x %#x", got[0], got[bs])
	}
}

func testOutOfRange(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs, nil)
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, storage.ErrOutOfRange) {
			t.Fatalf("%s: error %v does not match storage.ErrOutOfRange", op, err)
		}
		if !strings.Contains(err.Error(), "99") {
			t.Fatalf("%s: error %q does not name the offending index", op, err)
		}
	}
	_, err := s.Read(99)
	check("Read", err)
	check("Write", s.Write(99, block(bs, 1)))
	_, err = s.ReadMany(nil, []int64{0, 99})
	check("ReadMany", err)
	check("WriteMany", s.WriteMany([]int64{0, 99}, [][]byte{block(bs, 1), block(bs, 2)}))
	if x, ok := s.(storage.ExchangeStore); ok {
		_, err = x.Exchange(nil, []int64{99}, [][]byte{block(bs, 1)}, nil)
		check("Exchange write", err)
		_, err = x.Exchange(nil, []int64{0}, [][]byte{block(bs, 1)}, []int64{99})
		check("Exchange read", err)
	}
	// A failed batch must not have applied a prefix: every in-tree backend
	// validates the whole batch before touching any slot, so pin it here.
	blk, err := s.Read(0)
	if err != nil {
		t.Fatalf("Read(0): %v", err)
	}
	if blk[0] != 0 {
		t.Fatalf("failed batch leaked a partial write into slot 0 (fill %#x)", blk[0])
	}
}

// testEmptyBatches pins that an empty batch returns dst unchanged — same
// length, same backing array — and records no round.
func testEmptyBatches(t *testing.T, mk Factory) {
	m := storage.NewMeter()
	s := mk(t, 4, 16, m)
	dst := make([]byte, 3, 8)
	same := func(op string, got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("empty %s: %v", op, err)
		}
		if len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0] {
			t.Fatalf("empty %s did not return dst unchanged (len %d cap %d)", op, len(got), cap(got))
		}
	}
	got, err := s.ReadMany(dst, nil)
	same("ReadMany", got, err)
	if got, err := s.ReadMany(nil, nil); err != nil || got != nil {
		t.Fatalf("empty ReadMany into nil: %v, %v", got, err)
	}
	if err := s.WriteMany(nil, nil); err != nil {
		t.Fatalf("empty WriteMany: %v", err)
	}
	if x, ok := s.(storage.ExchangeStore); ok {
		got, err := x.Exchange(dst, nil, nil, nil)
		same("Exchange", got, err)
	}
	if st := m.Snapshot(); st != (storage.Stats{}) {
		t.Fatalf("empty batches recorded traffic: %+v", st)
	}
}

// testDstPrefixKept pins that a read appends after a non-empty prefix of
// dst and leaves the prefix intact, whether or not dst must grow.
func testDstPrefixKept(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs, nil)
	if err := s.WriteMany([]int64{1, 2}, [][]byte{block(bs, 0x01), block(bs, 0x02)}); err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	prefix := []byte("prefix")
	for _, spare := range []int{0, 2 * bs} {
		dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
		got, err := s.ReadMany(dst, []int64{2, 1})
		if err != nil {
			t.Fatalf("ReadMany: %v", err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || len(got) != len(prefix)+2*bs {
			t.Fatalf("spare %d: prefix %q, len %d", spare, got[:len(prefix)], len(got))
		}
		tail := got[len(prefix):]
		if !bytes.Equal(blockAt(tail, 0, bs), block(bs, 0x02)) || !bytes.Equal(blockAt(tail, 1, bs), block(bs, 0x01)) {
			t.Fatalf("spare %d: blocks after the prefix are wrong", spare)
		}
		if x, ok := s.(storage.ExchangeStore); ok {
			got, err := x.Exchange(dst, []int64{3}, [][]byte{block(bs, 0x03)}, []int64{3})
			if err != nil {
				t.Fatalf("Exchange: %v", err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], block(bs, 0x03)) {
				t.Fatalf("spare %d: exchange did not append after the prefix", spare)
			}
		}
	}
}

// testDstGrows pins that a read into a dst with too little capacity
// reallocates, leaving the caller's original buffer untouched, and that a
// dst with enough capacity is filled in place.
func testDstGrows(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs, nil)
	if err := s.WriteMany([]int64{0, 1, 2}, [][]byte{block(bs, 0xA0), block(bs, 0xA1), block(bs, 0xA2)}); err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	small := make([]byte, 0, bs)
	got, err := s.ReadMany(small, []int64{0, 1, 2})
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	if len(got) != 3*bs || cap(got) < 3*bs {
		t.Fatalf("grown read: len %d cap %d, want len %d", len(got), cap(got), 3*bs)
	}
	for k := 0; k < 3; k++ {
		if !bytes.Equal(blockAt(got, k, bs), block(bs, 0xA0+byte(k))) {
			t.Fatalf("grown read: block %d wrong", k)
		}
	}
	if !bytes.Equal(small[:cap(small)], make([]byte, bs)) {
		t.Fatal("read into a too-small dst wrote into the caller's buffer")
	}
	roomy := make([]byte, 0, 4*bs)
	got, err = s.ReadMany(roomy, []int64{2, 0})
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	if &got[0] != &roomy[:1][0] {
		t.Fatal("read into a dst with enough capacity reallocated")
	}
	if !bytes.Equal(blockAt(got, 0, bs), block(bs, 0xA2)) || !bytes.Equal(blockAt(got, 1, bs), block(bs, 0xA0)) {
		t.Fatal("in-place read: blocks wrong")
	}
}

// testDstIsCopy pins that the returned bytes are the caller's: changing
// them never changes what the store holds.
func testDstIsCopy(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs, nil)
	if err := s.Write(1, block(bs, 0x11)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.ReadMany(nil, []int64{1, 1})
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	clear(got)
	if x, ok := s.(storage.ExchangeStore); ok {
		got, err := x.Exchange(nil, []int64{2}, [][]byte{block(bs, 0x22)}, []int64{1, 2})
		if err != nil {
			t.Fatalf("Exchange: %v", err)
		}
		clear(got)
		if blk, err := s.Read(2); err != nil || !bytes.Equal(blk, block(bs, 0x22)) {
			t.Fatalf("slot 2 changed through the exchange's returned bytes: %v", err)
		}
	}
	if blk, err := s.Read(1); err != nil || !bytes.Equal(blk, block(bs, 0x11)) {
		t.Fatalf("slot 1 changed through the returned bytes: %v", err)
	}
}
