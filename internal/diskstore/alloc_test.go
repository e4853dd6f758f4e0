//go:build !race

package diskstore

import (
	"testing"

	"oblivjoin/internal/storage"
)

// The race detector instruments allocations, so the zero-allocation guards
// only run in normal builds.

// TestReadManyAllocs pins the caller-owned read buffer: every slot is read
// straight into its place in dst, so a metered batch read into a dst with
// enough capacity allocates nothing, whatever the batch size.
func TestReadManyAllocs(t *testing.T) {
	s := openTemp(t, 64, 512, Options{Meter: storage.NewMeter()})
	idxs := make([]int64, 32)
	for k := range idxs {
		idxs[k] = int64(k * 2)
	}
	dst := make([]byte, 0, len(idxs)*512)
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = s.ReadMany(dst, idxs) }); n != 0 || err != nil {
		t.Fatalf("ReadMany of %d blocks: %v allocations (err %v), want 0", len(idxs), n, err)
	}
}
