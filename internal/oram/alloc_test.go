//go:build !race

package oram

import (
	"fmt"
	"testing"

	"oblivjoin/internal/storage"
)

// The race detector instruments allocations, so the zero-allocation guards
// only run in normal builds.

// warmORAM returns a MemStore-backed Path-ORAM whose every key has been
// written and which has served enough accesses for its stash, stash map,
// recycled payload buffers and scratch buffers to reach steady state.
func warmORAM(t *testing.T, batch int) *PathORAM {
	t.Helper()
	const capacity = 256
	o := newBatchORAM(t, capacity, 64, storage.NewMeter(), batch, 11)
	for k := uint64(0); k < capacity; k++ {
		if err := o.Write(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Update(uint64(i%capacity), touch); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// touch is the Update callback of the guards: a non-capturing function, so
// passing it allocates nothing.
func touch(p []byte) error {
	p[1]++
	return nil
}

// TestAccessAllocs pins the allocation-free access path: a steady-state
// DummyAccess allocates nothing, with immediate and with deferred eviction
// (whose flushes ride fetches as exchanges). Update allocates exactly the
// copy of the updated payload that it returns to the caller (ORAM.Update's
// contract); its path download, stash traffic and write-back allocate
// nothing.
func TestAccessAllocs(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			o := warmORAM(t, batch)
			var err error
			if n := testing.AllocsPerRun(500, func() { err = o.DummyAccess() }); n != 0 || err != nil {
				t.Fatalf("DummyAccess: %v allocations per access (err %v), want 0", n, err)
			}
			key := uint64(0)
			update := func() {
				_, err = o.Update(key, touch)
				key = (key + 1) % 256
			}
			if n := testing.AllocsPerRun(500, update); n != 1 || err != nil {
				t.Fatalf("Update: %v allocations per access (err %v), want 1 (the returned copy)", n, err)
			}
		})
	}
}
