// Package storage simulates the untrusted cloud block server that backs the
// oblivious join engine.
//
// In the paper the server is a MongoDB instance that "only serves as the
// backend storage but does not provide any other computations or
// optimizations" (Section 9.1). We therefore model it as a flat array of
// fixed-size encrypted blocks per named store, instrumented with a Meter
// that counts every transferred block, byte, and network round trip. A
// CostModel turns those counters into a simulated query time so benchmark
// output is directly comparable in shape with the paper's wall-clock plots.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrOutOfRange is returned when a block index is outside the store.
// Implementations wrap it (fmt.Errorf with %w) with the offending index and
// the store name, so a failure deep in a remote or disk backend is
// diagnosable from its log line alone; callers must match with errors.Is,
// never equality. The remote transport preserves the match across the wire
// (see remote.RemoteError.Is).
var ErrOutOfRange = errors.New("storage: block index out of range")

// Store is a fixed-capacity array of equally sized opaque blocks held by the
// untrusted server. Indices are physical server locations: the adversary
// sees every Read/Write index, which is why ORAM sits on top of this
// interface rather than below it.
type Store interface {
	// Read returns the block at index i. The returned slice is a copy.
	Read(i int64) ([]byte, error)
	// Write replaces the block at index i.
	Write(i int64, data []byte) error
	// Len returns the number of block slots in the store.
	Len() int64
	// BlockSize returns the size in bytes of each stored block.
	BlockSize() int
}

// BatchStore is a Store that can move many blocks per network round trip.
// The paper argues oblivious join cost in round trips (Section 9.1): a
// Path-ORAM access touches O(log n) buckets, and a transport that batches
// the whole path pays one round instead of O(log n). Implementations that
// report to a Meter must account each batch as exactly one round.
//
// Duplicate-index contract: a batch MAY name the same index more than once,
// and implementations MUST apply the batch in slice order, so the highest
// position wins deterministically (last-writer-wins). The ORAM scheduler's
// flush dedupes shared buckets before writing, but crash-recovery replay in
// a persistent backend re-applies whole logged batches verbatim — both
// backends agreeing on this ordering is what makes replayed state equal
// live state (see storetest.TestBatchContract, which every backend runs).
type BatchStore interface {
	Store
	// ReadMany appends the blocks at the given indices, in order, to dst in
	// a single round trip and returns the extended slice: block k of the
	// batch is out[len(dst)+k*BlockSize():][:BlockSize()]. The caller owns
	// dst — the prefix dst[:len(dst)] is kept, and dst grows (reallocating)
	// only when its capacity is short — so a caller that passes the same
	// buffer back every time reads with no per-block allocation. The
	// appended bytes are a copy: changing them never changes the store. A
	// repeated index yields the same block at each of its positions. An
	// empty batch returns dst unchanged and performs no round; on error
	// the result is nil.
	ReadMany(dst []byte, idxs []int64) ([]byte, error)
	// WriteMany replaces the block at idxs[i] with data[i] for every i, in a
	// single round trip, applying positions in increasing i so duplicate
	// indices resolve last-writer-wins. len(data) must equal len(idxs).
	WriteMany(idxs []int64, data [][]byte) error
}

// ExchangeStore is a BatchStore that can apply a batch of writes and serve
// a batch of reads in the same round trip — the transport primitive behind
// the ORAM scheduler's deferred-eviction flush riding along the next path
// download (DESIGN.md §2.9). Implementations MUST apply every write before
// serving any read: the ORAM layer relies on reads observing the freshly
// written buckets, never stale pre-write copies. A fully empty exchange
// performs no round.
type ExchangeStore interface {
	BatchStore
	// Exchange writes writeData[i] to writeIdxs[i] for every i — in slice
	// order, so duplicate write indices resolve last-writer-wins exactly as
	// in WriteMany — then appends the blocks at readIdxs to dst, all in one
	// round trip. The read side follows ReadMany's dst contract.
	Exchange(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error)
}

// ReadBlocks appends the blocks at idxs to dst (ReadMany's contract): one
// ReadMany when st is a BatchStore, one Read per block otherwise. Callers
// that meter rounds themselves account the fallback's round.
func ReadBlocks(st Store, dst []byte, idxs []int64) ([]byte, error) {
	if b, ok := st.(BatchStore); ok {
		return b.ReadMany(dst, idxs)
	}
	for _, i := range idxs {
		blk, err := st.Read(i)
		if err != nil {
			return nil, err
		}
		dst = append(dst, blk...)
	}
	return dst, nil
}

// GrowBlocks extends dst by n blocks of blockSize bytes, reallocating only
// when its capacity is short, and returns the extended slice. The prefix
// dst[:len(dst)] is kept; the new tail's contents are unspecified.
func GrowBlocks(dst []byte, n, blockSize int) []byte {
	return slices.Grow(dst, n*blockSize)[:len(dst)+n*blockSize]
}

// Opener provisions a named block store with the given geometry. It is how
// the ORAM layer is parameterized over backends: nil means an in-process
// MemStore; a remote deployment passes a transport-backed opener so the
// same join code runs against a networked block server.
type Opener func(name string, slots int64, blockSize int) (Store, error)

// MemStore is an in-memory Store. It is safe for concurrent use.
type MemStore struct {
	mu        sync.RWMutex
	blockSize int
	data      []byte
	n         int64
	meter     *Meter
	name      string
}

// NewMemStore creates a store with n slots of blockSize bytes each, reporting
// traffic to meter (which may be nil). The name labels the store in traces.
func NewMemStore(name string, n int64, blockSize int, meter *Meter) *MemStore {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative store size %d", n))
	}
	if blockSize <= 0 {
		panic(fmt.Sprintf("storage: non-positive block size %d", blockSize))
	}
	return &MemStore{
		blockSize: blockSize,
		data:      make([]byte, n*int64(blockSize)),
		n:         n,
		meter:     meter,
		name:      name,
	}
}

// Name returns the label given at construction.
func (s *MemStore) Name() string { return s.name }

// Len implements Store.
func (s *MemStore) Len() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// BlockSize implements Store.
func (s *MemStore) BlockSize() int { return s.blockSize }

// checkLocked validates one index against the current slot count. Grow
// changes s.n, so callers hold s.mu (read or write).
func (s *MemStore) checkLocked(op string, i int64) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("%w: %s %d of %d (%s)", ErrOutOfRange, op, i, s.n, s.name)
	}
	return nil
}

// checkBlock validates one write payload's size; the block size never
// changes, so no lock is needed.
func (s *MemStore) checkBlock(op string, data []byte) error {
	if len(data) != s.blockSize {
		return fmt.Errorf("storage: %s of %d bytes to %d-byte block (%s)", op, len(data), s.blockSize, s.name)
	}
	return nil
}

// Read implements Store.
func (s *MemStore) Read(i int64) ([]byte, error) {
	out := make([]byte, s.blockSize)
	s.mu.RLock()
	if err := s.checkLocked("read", i); err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	copy(out, s.data[i*int64(s.blockSize):])
	s.mu.RUnlock()
	if s.meter != nil {
		s.meter.countRead(s.name, i, s.blockSize)
	}
	return out, nil
}

// Write implements Store.
func (s *MemStore) Write(i int64, data []byte) error {
	if err := s.checkBlock("write", data); err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.checkLocked("write", i); err != nil {
		s.mu.Unlock()
		return err
	}
	copy(s.data[i*int64(s.blockSize):], data)
	s.mu.Unlock()
	if s.meter != nil {
		s.meter.countWrite(s.name, i, len(data))
	}
	return nil
}

// ReadMany implements BatchStore. All blocks are copied into dst under one
// lock acquisition and metered as a single network round.
func (s *MemStore) ReadMany(dst []byte, idxs []int64) ([]byte, error) {
	if len(idxs) == 0 {
		return dst, nil
	}
	s.mu.RLock()
	if err := s.checkAllLocked("batch read", idxs); err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	dst = s.readLocked(dst, idxs)
	s.mu.RUnlock()
	if s.meter != nil {
		s.meter.CountBatch(s.name, KindRead, idxs, s.blockSize)
	}
	return dst, nil
}

// checkAllLocked validates every index of a batch. Callers hold s.mu.
func (s *MemStore) checkAllLocked(op string, idxs []int64) error {
	for _, i := range idxs {
		if err := s.checkLocked(op, i); err != nil {
			return err
		}
	}
	return nil
}

// readLocked appends the blocks at the (validated) idxs to dst. Callers
// hold s.mu.
func (s *MemStore) readLocked(dst []byte, idxs []int64) []byte {
	bs := s.blockSize
	off := len(dst)
	dst = GrowBlocks(dst, len(idxs), bs)
	for k, i := range idxs {
		copy(dst[off+k*bs:off+(k+1)*bs], s.data[i*int64(bs):])
	}
	return dst
}

// WriteMany implements BatchStore.
func (s *MemStore) WriteMany(idxs []int64, data [][]byte) error {
	if len(idxs) != len(data) {
		return fmt.Errorf("storage: batch write of %d blocks with %d payloads (%s)", len(idxs), len(data), s.name)
	}
	if len(idxs) == 0 {
		return nil
	}
	for _, d := range data {
		if err := s.checkBlock("batch write", d); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if err := s.checkAllLocked("batch write", idxs); err != nil {
		s.mu.Unlock()
		return err
	}
	for k, i := range idxs {
		copy(s.data[i*int64(s.blockSize):], data[k])
	}
	s.mu.Unlock()
	if s.meter != nil {
		s.meter.CountBatch(s.name, KindWrite, idxs, s.blockSize)
	}
	return nil
}

// Exchange implements ExchangeStore: the writes are applied, then the reads
// appended to dst, under a single lock acquisition, metered as one round.
func (s *MemStore) Exchange(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("storage: exchange of %d write blocks with %d payloads (%s)", len(writeIdxs), len(writeData), s.name)
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	for _, d := range writeData {
		if err := s.checkBlock("exchange write", d); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	// Validate the whole exchange — writes and reads — before touching any
	// slot, so a malformed request can never commit a partial batch.
	err := s.checkAllLocked("exchange write", writeIdxs)
	if err == nil {
		err = s.checkAllLocked("exchange read", readIdxs)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	for k, i := range writeIdxs {
		copy(s.data[i*int64(s.blockSize):], writeData[k])
	}
	dst = s.readLocked(dst, readIdxs)
	s.mu.Unlock()
	if s.meter != nil {
		s.meter.CountExchange(s.name, writeIdxs, readIdxs, s.blockSize)
	}
	return dst, nil
}

// SizeBytes returns the total server-side footprint of the store.
func (s *MemStore) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n * int64(s.blockSize)
}

// Grow extends the store by n zeroed block slots. Cloud storage is elastic;
// output tables grow as records are appended, and the growth schedule
// depends only on the (public) record count.
func (s *MemStore) Grow(n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.n += n
	s.data = append(s.data, make([]byte, n*int64(s.blockSize))...)
	s.mu.Unlock()
}
