package remote

import (
	"bytes"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

func exBlock(tag byte, size int) []byte {
	b := bytes.Repeat([]byte{tag}, size)
	b[0] = 'x'
	return b
}

// TestExchangeRPCOverLoopback exercises the OpExchange fast path end to end:
// one RPC applies a batch of writes and serves a batch of reads, the reads
// observing the writes that travelled with them, for exactly one metered
// network round.
func TestExchangeRPCOverLoopback(t *testing.T) {
	m := storage.NewMeter()
	_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	const size = 32
	st, err := c.Create("ex", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMany([]int64{0, 1, 2, 3},
		[][]byte{exBlock(0, size), exBlock(1, size), exBlock(2, size), exBlock(3, size)}); err != nil {
		t.Fatal(err)
	}

	before := m.Snapshot()
	got, err := st.Exchange(nil,
		[]int64{2, 3}, [][]byte{exBlock(20, size), exBlock(30, size)},
		[]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*size {
		t.Fatalf("%d bytes returned, want 3 blocks", len(got))
	}
	// Writes apply before reads: indices 2 and 3 must come back with the
	// contents that travelled in this very request.
	if !bytes.Equal(got[:size], exBlock(1, size)) {
		t.Fatalf("untouched index 1 corrupted: %v", got[:4])
	}
	if !bytes.Equal(got[size:2*size], exBlock(20, size)) || !bytes.Equal(got[2*size:], exBlock(30, size)) {
		t.Fatalf("exchange reads predate its writes: %v %v", got[size:size+4], got[2*size:2*size+4])
	}
	d := m.Snapshot().Sub(before)
	if d.NetworkRounds != 1 {
		t.Fatalf("exchange cost %d rounds, want 1", d.NetworkRounds)
	}
	if d.BlockWrites != 2 || d.BlockReads != 3 {
		t.Fatalf("metered %d writes / %d reads, want 2 / 3", d.BlockWrites, d.BlockReads)
	}

	// Degenerate forms collapse to the plain batch ops; the empty exchange
	// skips the wire entirely.
	before = m.Snapshot()
	if got, err = st.Exchange(nil, nil, nil, []int64{0}); err != nil || !bytes.Equal(got, exBlock(0, size)) {
		t.Fatalf("read-only exchange: %v %v", err, got)
	}
	if d := m.Snapshot().Sub(before); d.NetworkRounds != 1 || d.BlockWrites != 0 {
		t.Fatalf("read-only exchange stats: %+v", d)
	}
	before = m.Snapshot()
	if _, err := st.Exchange(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d.NetworkRounds != 0 {
		t.Fatalf("empty exchange touched the wire: %+v", d)
	}
}

// runLoopbackSMJRounds stores two relations on a loopback server with the
// given eviction batch, runs the oblivious sort-merge join over the wire,
// checks the result, and returns the network rounds each Path-ORAM access
// cost. The tables' ORAM traffic is metered on the client transport while
// the output filter is metered apart, so the ratio is exact; setup traffic
// is excluded by resetting the meter after Store (bulk load bypasses the
// access path, so telemetry accesses start at zero there too).
func runLoopbackSMJRounds(t *testing.T, k int) (perAccess float64, exchanges int64) {
	t.Helper()
	mTab := storage.NewMeter()
	_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: mTab})
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 12, 15, 15, 18, 21, 22, 25, 30}
	k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 14, 15, 19, 21, 21, 26, 30}
	want := multiset(core.ReferenceEquiJoin(e2eRel("t1", k1), e2eRel("t2", k2), "k", "k"))
	topts := table.Options{
		BlockPayload:  256,
		Meter:         mTab,
		Sealer:        sealer,
		Rand:          oram.NewSeededSource(7),
		OpenStore:     c.Opener(),
		EvictionBatch: k,
		PrefetchDepth: k,
	}
	t1, err := table.Store(e2eRel("t1", k1), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.Store(e2eRel("t2", k2), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	mTab.Reset() // setup traffic is not query cost
	res, err := core.SortMergeJoin(t1, t2, "k", "k", core.Options{
		Meter:         storage.NewMeter(), // output filter metered apart
		Sealer:        sealer,
		OutBlockSize:  256,
		PrefetchDepth: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := multiset(res.Tuples)
	if len(got) != len(want) {
		t.Fatalf("distinct tuples: got %d, want %d", len(got), len(want))
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("tuple %s: got %d, want %d", key, got[key], n)
		}
	}
	var accesses int64
	for _, st := range []*table.StoredTable{t1, t2} {
		for _, ps := range st.PathTelemetry() {
			accesses += ps.Accesses
			exchanges += ps.Exchanges
		}
	}
	if accesses == 0 {
		t.Fatal("no ORAM accesses recorded")
	}
	rounds := mTab.Snapshot().NetworkRounds
	return float64(rounds) / float64(accesses), exchanges
}

// TestLoopbackSMJDeferredRounds is the acceptance check for the staged data
// path (DESIGN.md §2.9): over a real loopback server, EvictionBatch = 16
// brings the join's cost from the classic two rounds per ORAM access down
// to at most 1.25, with the deferred flushes riding path downloads as
// combined exchange rounds.
func TestLoopbackSMJDeferredRounds(t *testing.T) {
	classic, classicEx := runLoopbackSMJRounds(t, 1)
	if classic < 1.9 || classic > 2.0 {
		t.Fatalf("classic data path cost %.3f rounds/access, want ~2.0", classic)
	}
	if classicEx != 0 {
		t.Fatalf("classic data path used %d exchanges", classicEx)
	}

	deferred, deferredEx := runLoopbackSMJRounds(t, 16)
	if deferred > 1.25 {
		t.Fatalf("deferred data path cost %.3f rounds/access, want <= 1.25", deferred)
	}
	if deferredEx == 0 {
		t.Fatal("no eviction flush rode a path download")
	}
	t.Logf("rounds/access: classic %.3f -> deferred %.3f (%d exchanges)", classic, deferred, deferredEx)
}
