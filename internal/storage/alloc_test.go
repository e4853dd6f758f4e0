//go:build !race

package storage

import "testing"

// The race detector instruments allocations, so the zero-allocation guards
// only run in normal builds.

// TestMemStoreReadManyAllocs pins the caller-owned read buffer: a metered
// batch read into a dst with enough capacity allocates nothing, whatever
// the batch size.
func TestMemStoreReadManyAllocs(t *testing.T) {
	s := NewMemStore("alloc", 64, 512, NewMeter())
	idxs := make([]int64, 32)
	for k := range idxs {
		idxs[k] = int64(k * 2)
	}
	dst := make([]byte, 0, len(idxs)*512)
	var err error
	n := testing.AllocsPerRun(200, func() { _, err = s.ReadMany(dst, idxs) })
	if n != 0 || err != nil {
		t.Fatalf("ReadMany of %d blocks: %v allocations (err %v), want 0", len(idxs), n, err)
	}
	data := make([][]byte, 4)
	for k := range data {
		data[k] = make([]byte, 512)
	}
	n = testing.AllocsPerRun(200, func() { _, err = s.Exchange(dst, idxs[:4], data, idxs) })
	if n != 0 || err != nil {
		t.Fatalf("Exchange reading %d blocks: %v allocations (err %v), want 0", len(idxs), n, err)
	}
}
