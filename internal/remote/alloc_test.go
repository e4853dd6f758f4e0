//go:build !race

package remote

import (
	"testing"

	"oblivjoin/internal/storage"
)

// The race detector instruments allocations, so the zero-allocation guards
// only run in normal builds.

// TestReadManyAllocsPerBlock pins the client's decode-into path: response
// blocks land directly in the caller's dst, so a loopback batch read's
// allocations (request and response headers) do not grow with the number
// of blocks it carries.
func TestReadManyAllocsPerBlock(t *testing.T) {
	_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: storage.NewMeter()})
	const bs = 512
	st, err := c.Create("alloc", 64, bs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(blocks int) float64 {
		idxs := make([]int64, blocks)
		for k := range idxs {
			idxs[k] = int64(k * 2)
		}
		dst := make([]byte, 0, blocks*bs)
		n := testing.AllocsPerRun(100, func() { _, err = st.ReadMany(dst, idxs) })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	one, many := allocs(1), allocs(32)
	if many != one {
		t.Fatalf("ReadMany allocations: %v for 1 block, %v for 32 blocks; want no per-block allocation", one, many)
	}
	t.Logf("ReadMany: %v allocations per call", one)
}
