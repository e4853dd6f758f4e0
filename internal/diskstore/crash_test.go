package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crash suite enumerates every kill point in a scripted batch workload:
// for each N it replays the script against a CrashFS that fails the Nth
// mutating file operation (optionally tearing the fatal write in half),
// then reopens the surviving files with the real filesystem and checks the
// recovery invariant — the recovered store equals the state after some
// prefix of the script's batches, never a torn batch, and with SyncEvery=1
// the prefix covers at least every batch whose commit call returned nil.

const (
	crashSlots     = 16
	crashBlockSize = 32
)

// crashBatch is one scripted commit: write fills[k] to idxs[k] (in order —
// duplicate indices resolve last-writer-wins), via Exchange when exch is
// set and WriteMany otherwise.
type crashBatch struct {
	idxs  []int64
	fills []byte
	exch  bool
}

// crashScript mixes single writes, duplicate-index batches, exchanges, and
// enough volume to cross the checkpoint threshold used by the sweep.
var crashScript = []crashBatch{
	{idxs: []int64{0}, fills: []byte{0x10}},
	{idxs: []int64{1, 2, 3}, fills: []byte{0x11, 0x12, 0x13}},
	{idxs: []int64{3, 1, 3}, fills: []byte{0x21, 0x22, 0x23}}, // dup: slot 3 = 0x23
	{idxs: []int64{4, 5}, fills: []byte{0x24, 0x25}, exch: true},
	{idxs: []int64{0, 15}, fills: []byte{0x30, 0x3F}},
	{idxs: []int64{5, 5, 6}, fills: []byte{0x41, 0x42, 0x43}, exch: true}, // dup: slot 5 = 0x42
	{idxs: []int64{7, 8, 9, 10}, fills: []byte{0x47, 0x48, 0x49, 0x4A}},
	{idxs: []int64{2}, fills: []byte{0x52}},
	{idxs: []int64{11, 12, 13, 14}, fills: []byte{0x5B, 0x5C, 0x5D, 0x5E}},
	{idxs: []int64{15, 0}, fills: []byte{0x6F, 0x60}, exch: true},
	{idxs: []int64{6, 7}, fills: []byte{0x76, 0x77}},
	{idxs: []int64{1}, fills: []byte{0x81}},
}

// modelStates returns the expected full-store contents after each script
// prefix: states[k] is the store after the first k batches.
func modelStates() [][][]byte {
	cur := make([][]byte, crashSlots)
	for i := range cur {
		cur[i] = make([]byte, crashBlockSize)
	}
	states := make([][][]byte, 0, len(crashScript)+1)
	snap := func() [][]byte {
		out := make([][]byte, crashSlots)
		for i := range cur {
			out[i] = append([]byte(nil), cur[i]...)
		}
		return out
	}
	states = append(states, snap())
	for _, b := range crashScript {
		for k, i := range b.idxs {
			cur[i] = bytes.Repeat([]byte{b.fills[k]}, crashBlockSize)
		}
		states = append(states, snap())
	}
	return states
}

// setupCrashStore creates (and cleanly closes) the store the sweep reopens
// under injection, so every kill point lands inside a batch commit or
// checkpoint rather than file creation.
func setupCrashStore(t *testing.T, base string) {
	t.Helper()
	s, err := OpenStore(base, "crash", crashSlots, crashBlockSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// runScript replays batches until the first error, returning how many
// commits were acknowledged (returned nil).
func runScript(s *Store) (acked int) {
	for _, b := range crashScript {
		data := make([][]byte, len(b.idxs))
		for k := range b.idxs {
			data[k] = bytes.Repeat([]byte{b.fills[k]}, crashBlockSize)
		}
		var err error
		if b.exch {
			_, err = s.Exchange(nil, b.idxs, data, []int64{0})
		} else {
			err = s.WriteMany(b.idxs, data)
		}
		if err != nil {
			return acked
		}
		acked++
	}
	return acked
}

func TestCrashRecoveryEveryKillPoint(t *testing.T) {
	for _, torn := range []bool{false, true} {
		for _, syncEvery := range []int{1, 3} {
			name := fmt.Sprintf("torn=%v/syncEvery=%d", torn, syncEvery)
			t.Run(name, func(t *testing.T) { crashSweep(t, torn, syncEvery) })
		}
	}
}

func crashSweep(t *testing.T, torn bool, syncEvery int) {
	states := modelStates()
	// CheckpointBytes small enough that the script crosses it several
	// times, so the sweep also lands kill points inside checkpoints.
	opts := func(fs FS) Options {
		return Options{SyncEvery: syncEvery, CheckpointBytes: 400, FS: fs}
	}

	// Clean run under a disarmed CrashFS to count the mutating operations —
	// that bounds the kill points worth enumerating.
	probe := NewCrashFS(0, false)
	base := filepath.Join(t.TempDir(), "clean")
	setupCrashStore(t, base)
	s, err := OpenStore(base, "crash", crashSlots, crashBlockSize, opts(probe))
	if err != nil {
		t.Fatal(err)
	}
	if got := runScript(s); got != len(crashScript) {
		t.Fatalf("clean run acked %d of %d batches", got, len(crashScript))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := int(probe.Ops())
	if total < len(crashScript) {
		t.Fatalf("clean run performed only %d mutating ops", total)
	}

	for n := 1; n <= total; n++ {
		base := filepath.Join(t.TempDir(), fmt.Sprintf("kill%d", n))
		setupCrashStore(t, base)
		cfs := NewCrashFS(n, torn)
		s, err := OpenStore(base, "crash", crashSlots, crashBlockSize, opts(cfs))
		if err != nil {
			t.Fatalf("kill point %d: reopen before script: %v", n, err)
		}
		acked := runScript(s)
		s.Close() // dying process: best-effort, error expected past the kill point

		// Reopen the surviving bytes with the real filesystem: this runs
		// recovery exactly as a restart after a process kill would.
		r, err := OpenStore(base, "", 0, 0, Options{})
		if err != nil {
			t.Fatalf("kill point %d (acked %d): recovery open: %v", n, acked, err)
		}
		got := make([][]byte, crashSlots)
		for i := int64(0); i < crashSlots; i++ {
			blk, err := r.Read(i)
			if err != nil {
				t.Fatalf("kill point %d: recovered slot %d unreadable: %v", n, i, err)
			}
			got[i] = blk
		}
		r.Close()

		k := matchPrefix(states, got)
		if k < 0 {
			t.Fatalf("kill point %d (acked %d): recovered state matches no script prefix; slot fills %v",
				n, acked, fills(got))
		}
		// With per-commit fsync every acknowledged batch is durable. (Group
		// commit only weakens this on real hardware, where unsynced page-cache
		// bytes can vanish; the injected crash model persists completed
		// writes, so the bound holds there too — asserted only where the
		// documented contract requires it.)
		if syncEvery == 1 && k < acked {
			t.Fatalf("kill point %d: recovered prefix %d < %d acknowledged batches", n, k, acked)
		}
		if !cfs.Crashed() {
			// Kill points past the script's op count: the run completed
			// cleanly, so full state was required and matchPrefix confirmed it.
			if k != len(crashScript) {
				t.Fatalf("kill point %d never fired but recovered prefix %d", n, k)
			}
		}
	}
}

// matchPrefix returns the k for which got equals states[k], or -1.
func matchPrefix(states [][][]byte, got [][]byte) int {
	for k, st := range states {
		ok := true
		for i := range st {
			if !bytes.Equal(st[i], got[i]) {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return -1
}

// fills compresses a recovered state to one byte per slot for failure logs.
func fills(blocks [][]byte) []byte {
	out := make([]byte, len(blocks))
	for i, b := range blocks {
		out[i] = b[0]
	}
	return out
}

// TestCrashFSTearsFatalWrite pins the injection mechanics themselves: the
// fatal torn write persists exactly half its bytes.
func TestCrashFSTearsFatalWrite(t *testing.T) {
	cfs := NewCrashFS(1, true)
	f, err := cfs.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 2, 3, 4}, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fatal write: %v, want ErrCrashed", err)
	}
	if _, err := f.WriteAt([]byte{9}, 8); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v, want ErrCrashed", err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 2 {
		t.Fatalf("torn write persisted %d bytes, want 2", size)
	}
	f.Close()
}
