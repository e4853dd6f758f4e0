package remote

import (
	"errors"
	"fmt"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// TestRemoteStoreBatchContract runs the shared backend conformance suite
// against a client-side RemoteStore talking to a loopback server, so the
// networked backend cannot drift from MemStore on duplicate-index ordering,
// exchange read-after-write, or ErrOutOfRange wrapping (which RemoteError.Is
// carries across the string-flattening wire).
func TestRemoteStoreBatchContract(t *testing.T) {
	_, c := startServer(t, ServerOptions{}, ClientOptions{})
	n := 0
	storetest.TestBatchContract(t, "remote", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.BatchStore {
		n++
		// A client of its own carries the suite's meter for this store.
		mc, err := Dial(ClientOptions{Addr: c.opts.Addr, Meter: m})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mc.Close() })
		st, err := mc.Create(fmt.Sprintf("contract%d", n), slots, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// TestRemoteErrorIs pins the across-the-wire sentinel match directly.
func TestRemoteErrorIs(t *testing.T) {
	err := &RemoteError{Msg: storage.ErrOutOfRange.Error() + ": read 9 of 4 (t)"}
	if !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatal("RemoteError carrying an out-of-range message does not match the sentinel")
	}
	if errors.Is(&RemoteError{Msg: "remote: unknown store"}, storage.ErrOutOfRange) {
		t.Fatal("unrelated RemoteError matches ErrOutOfRange")
	}
}
