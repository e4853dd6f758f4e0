package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpRead, Store: "t1.data", Indices: []int64{7}},
		{Op: OpWrite, Store: "t1.data", Indices: []int64{3}, Blocks: [][]byte{[]byte("payload")}},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5, 2, 9}},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("bb")}},
		{Op: OpStat, Store: "idx.k"},
		{Op: OpCreate, Store: "fresh", Slots: 128, BlockSize: 4096},
		// Multi-path exchange: Indices carries the read set, WriteIndices
		// the write set aligned with Blocks.
		{Op: OpExchange, Store: "t1.data", Indices: []int64{0, 3, 7},
			WriteIndices: []int64{1, 2}, Blocks: [][]byte{[]byte("wa"), []byte("wb")}},
		{Op: OpExchange, Store: "t1.data", Indices: []int64{5},
			WriteIndices: []int64{9}, Blocks: [][]byte{[]byte("solo")}},
		// Session handshake and session-scoped traffic.
		{Op: OpHello, Tenant: "acme", Slots: 30_000},
		{Op: OpHello, Tenant: "weird/tenant:name"},
		{Op: OpBye, Session: 17},
		{Op: OpRead, Store: "t1.data", Indices: []int64{7}, Session: 3, DeadlineMS: 2500},
		{Op: OpExchange, Store: "t1.data", Indices: []int64{0, 3},
			WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("w")}, Session: 9},
		// Distributed-trace context rides an optional trailing section.
		{Op: OpRead, Store: "t1.data", Indices: []int64{7}, TraceID: 0xDEAD, SpanID: 3, Phase: "join.smj"},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}, Session: 4, DeadlineMS: 900,
			TraceID: 1, SpanID: 99, Phase: "sort.runs"},
		{Op: OpExchange, Store: "t1.data", Indices: []int64{0, 3}, WriteIndices: []int64{1},
			Blocks: [][]byte{[]byte("w")}, TraceID: 7, SpanID: 1, Phase: "oram.flush"},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1}, Blocks: [][]byte{[]byte("a")},
			TraceID: 12345678901234567890, SpanID: 2}, // no phase label
		{Op: OpTrace, TraceID: 55},
		{Op: OpTrace}, // fetch everything buffered
	}
	for _, req := range cases {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: round trip %+v != %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK, Blocks: [][]byte{[]byte("blk")}},
		{Status: StatusOK, Slots: 64, BlockSize: 4144},
		{Status: StatusError, Msg: "remote: unknown store"},
		{Status: StatusTransient, Msg: "injected"},
		{Status: StatusBusy, Msg: "remote: session table full"},
		{Status: StatusOK, Slots: 60_000, Session: 42},
	}
	for i, resp := range cases {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, resp)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("truncate me")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		if _, err := ReadFrame(bytes.NewReader(whole[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
}

// TestDecodeRequestLegacyFormat pins wire compatibility across the
// OpExchange protocol revision: a request encoded without the trailing
// WriteIndices field — what a client from before the field existed sends —
// must still decode, with WriteIndices empty. Version skew may cost a peer
// the exchange fast path (which old clients never request), never the
// whole protocol.
func TestDecodeRequestLegacyFormat(t *testing.T) {
	cases := []*Request{
		{Op: OpRead, Store: "t1.data", Indices: []int64{7}},
		{Op: OpWrite, Store: "t1.data", Indices: []int64{3}, Blocks: [][]byte{[]byte("payload")}},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5, 2, 9}},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("bb")}},
		{Op: OpStat, Store: "idx.k"},
		{Op: OpCreate, Store: "fresh", Slots: 128, BlockSize: 4096},
	}
	for _, req := range cases {
		b := EncodeRequest(req)
		// The current encoder always appends the WriteIndices field; with no
		// write indices it is a single zero varint. Stripping it reproduces
		// the previous wire format byte-for-byte.
		if b[len(b)-1] != 0 {
			t.Fatalf("%s: frame does not end with an empty WriteIndices field", req.Op)
		}
		got, err := DecodeRequest(b[:len(b)-1])
		if err != nil {
			t.Fatalf("%s: legacy frame rejected: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: legacy decode %+v != %+v", req.Op, got, req)
		}
	}
}

// TestSessionlessWireCompat pins the session protocol revision's skew rule
// from the other side: a request that uses no session features must encode
// byte-identically to the pre-session wire format (no trailing session
// section), and a response without a session ID likewise — so new clients
// keep talking to old servers and old clients to new servers.
func TestSessionlessWireCompat(t *testing.T) {
	req := &Request{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}}
	b := EncodeRequest(req)
	// Pre-session format = current format minus nothing: the frame must end
	// with the empty WriteIndices varint, exactly as before the revision.
	if b[len(b)-1] != 0 {
		t.Fatalf("sessionless request grew a trailing section: % x", b)
	}
	got, err := DecodeRequest(b)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("sessionless round trip: %+v, %v", got, err)
	}
	resp := &Response{Status: StatusOK, Slots: 8, BlockSize: 32}
	rb := EncodeResponse(resp)
	// A zero session ID must not be encoded at all.
	want := len(EncodeResponse(&Response{Status: StatusOK, Slots: 8, BlockSize: 32, Session: 0}))
	if len(rb) != want {
		t.Fatalf("zero session changed the encoding: %d vs %d bytes", len(rb), want)
	}
	if _, err := DecodeResponse(rb); err != nil {
		t.Fatalf("sessionless response rejected: %v", err)
	}
}

// TestTracelessWireCompat pins the trace protocol revision's skew rule: a
// request without a trace context must encode byte-identically to the
// pre-trace wire format (no trailing trace section), so untraced traffic —
// including every legacy client's — is untouched by the revision.
func TestTracelessWireCompat(t *testing.T) {
	cases := []*Request{
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}},
		{Op: OpRead, Store: "t1.data", Indices: []int64{7}, Session: 3, DeadlineMS: 2500},
		{Op: OpHello, Tenant: "acme", Slots: 30_000},
	}
	for _, req := range cases {
		b := EncodeRequest(req)
		traced := *req
		traced.TraceID, traced.SpanID, traced.Phase = 9, 1, "load"
		tb := EncodeRequest(&traced)
		if len(tb) <= len(b) {
			t.Fatalf("%s: trace section did not grow the frame", req.Op)
		}
		// The untraced frame must be a strict prefix of the traced one up to
		// the session section: for session-carrying requests the encodings
		// before the trace section are identical.
		if req.Session != 0 || req.Tenant != "" || req.DeadlineMS != 0 {
			if !bytes.HasPrefix(tb, b) {
				t.Fatalf("%s: traced frame is not untraced frame + trace section", req.Op)
			}
		}
		got, err := DecodeRequest(b)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: untraced round trip: %+v, %v", req.Op, got, err)
		}
	}
}

// TestDecodeRequestLegacyTraceless pins tolerance from the other side: a
// traced request whose trailing trace section is stripped — what an old
// proxy or a pre-trace peer would have produced for the same op — must
// still decode, with the trace fields zero. Version skew costs the peer
// span attribution, never the operation.
func TestDecodeRequestLegacyTraceless(t *testing.T) {
	req := &Request{Op: OpRead, Store: "t1.data", Indices: []int64{7},
		Session: 3, DeadlineMS: 100, TraceID: 77, SpanID: 5, Phase: "join.smj"}
	full := EncodeRequest(req)
	bare := *req
	bare.TraceID, bare.SpanID, bare.Phase = 0, 0, ""
	stripped := EncodeRequest(&bare)
	if !bytes.HasPrefix(full, stripped) {
		t.Fatal("traced frame must extend the traceless frame")
	}
	got, err := DecodeRequest(stripped)
	if err != nil {
		t.Fatalf("traceless frame rejected: %v", err)
	}
	if !reflect.DeepEqual(got, &bare) {
		t.Fatalf("traceless decode %+v != %+v", got, &bare)
	}
}

func TestDecodeRequestTraceMalformed(t *testing.T) {
	base := EncodeRequest(&Request{Op: OpRead, Store: "s", Indices: []int64{1},
		Session: 2, TraceID: 9, SpanID: 1, Phase: "load"})
	longPhase := EncodeRequest(&Request{Op: OpRead, Store: "s", Indices: []int64{1},
		TraceID: 9, SpanID: 1, Phase: string(bytes.Repeat([]byte{'p'}, 300))})
	// A trace section whose trace ID is zero is never produced by the
	// encoder; accepting it would break canonical re-encoding.
	sess := EncodeRequest(&Request{Op: OpRead, Store: "s", Indices: []int64{1}, Session: 2})
	zeroTrace := append(append([]byte{}, sess...), 0 /*traceID*/, 5 /*spanID*/, 0 /*phase len*/)
	cases := map[string][]byte{
		"truncated trace section": base[:len(base)-2],
		"over-long phase":         longPhase,
		"zero trace ID":           zeroTrace,
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	base := EncodeRequest(&Request{Op: OpWriteMany, Store: "s", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("aa"), []byte("bb")}})
	cases := map[string][]byte{
		"empty":          {},
		"unknown op":     {0xFF},
		"zero op":        {0x00},
		"trailing bytes": append(append([]byte{}, base...), 0x01),
		"truncated":      base[:len(base)-3],
		// A count claiming more indices than the payload could possibly hold
		// must be rejected before allocation.
		"forged count": {byte(OpReadMany), 1, 's', 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeResponseMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"bad status":     {0x09},
		"truncated msg":  {byte(StatusError), 0x10, 'x'},
		"trailing bytes": append(EncodeResponse(&Response{}), 0xAA),
	}
	for name, payload := range cases {
		if _, err := DecodeResponse(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and both
// message decoders: none may panic, and any allocation they perform must be
// bounded by the input length (enforced indirectly — a forged count that
// over-allocates would OOM the fuzzer).
// TestDecodeResponseInto pins the client's batch-read decode: blocks land
// back to back after dst's prefix, a block of the wrong size or a forged
// block count is malformed, and nothing is returned on error.
func TestDecodeResponseInto(t *testing.T) {
	resp := &Response{Status: StatusOK, Blocks: [][]byte{[]byte("aaaa"), []byte("bbbb")}, Slots: 3}
	payload := EncodeResponse(resp)
	got, out, err := DecodeResponseInto(payload, []byte("pre"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "preaaaabbbb" || got.Blocks != nil || got.Slots != 3 {
		t.Fatalf("decoded %+v with blocks %q", got, out)
	}
	if _, out, err := DecodeResponseInto(payload, nil, 3); !errors.Is(err, ErrMalformed) || out != nil {
		t.Fatalf("wrong block size: %q, %v", out, err)
	}
	// A count claiming more blocks than the payload can carry is rejected
	// before dst grows.
	forged := []byte{byte(StatusOK), 0, 0xFF, 0xFF, 0x03, 4, 'a', 'a', 'a', 'a', 0, 0}
	if _, out, err := DecodeResponseInto(forged, nil, 4); !errors.Is(err, ErrMalformed) || out != nil {
		t.Fatalf("forged count: %q, %v", out, err)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeRequest(&Request{Op: OpRead, Store: "t", Indices: []int64{1}}))
	f.Add(EncodeRequest(&Request{Op: OpWriteMany, Store: "t", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("b")}}))
	f.Add(EncodeRequest(&Request{Op: OpCreate, Store: "t", Slots: 8, BlockSize: 64}))
	f.Add(EncodeRequest(&Request{Op: OpExchange, Store: "t", Indices: []int64{0, 2},
		WriteIndices: []int64{1, 3}, Blocks: [][]byte{[]byte("x"), []byte("y")}}))
	// Legacy wire format: a request from before the WriteIndices field.
	legacy := EncodeRequest(&Request{Op: OpReadMany, Store: "t", Indices: []int64{4, 1}})
	f.Add(legacy[:len(legacy)-1])
	f.Add(EncodeResponse(&Response{Status: StatusOK, Blocks: [][]byte{[]byte("blk")}}))
	f.Add(EncodeResponse(&Response{Status: StatusTransient, Msg: "retry"}))
	// Session protocol revision: handshake, session-scoped op, busy reply.
	f.Add(EncodeRequest(&Request{Op: OpHello, Tenant: "acme", Slots: 30_000}))
	f.Add(EncodeRequest(&Request{Op: OpRead, Store: "t", Indices: []int64{1}, Session: 5, DeadlineMS: 900}))
	f.Add(EncodeResponse(&Response{Status: StatusBusy, Msg: "full"}))
	f.Add(EncodeResponse(&Response{Status: StatusOK, Slots: 60_000, Session: 7}))
	// Trace protocol revision: traced op, trace fetch, stripped trace section.
	f.Add(EncodeRequest(&Request{Op: OpRead, Store: "t", Indices: []int64{1},
		Session: 5, TraceID: 9, SpanID: 2, Phase: "join.smj"}))
	f.Add(EncodeRequest(&Request{Op: OpTrace, TraceID: 9}))
	f.Add(EncodeRequest(&Request{Op: OpExchange, Store: "t", Indices: []int64{0},
		WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("x")}, TraceID: 1, SpanID: 1, Phase: "oram.flush"}))
	var framed bytes.Buffer
	_ = WriteFrame(&framed, EncodeRequest(&Request{Op: OpStat, Store: "t"}))
	f.Add(framed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := ReadFrame(bytes.NewReader(data), 1<<20); err == nil {
			_, _ = DecodeRequest(payload)
			_, _ = DecodeResponse(payload)
		}
		if req, err := DecodeRequest(data); err == nil {
			// Whatever decodes must re-encode and decode to the same value.
			back, err := DecodeRequest(EncodeRequest(req))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("re-encode mismatch: %+v != %+v", back, req)
			}
		}
		// The decode-into path accepts exactly the frames whose blocks all
		// have the expected size, and lands the same bytes.
		if resp, out, err := DecodeResponseInto(data, nil, 3); err == nil {
			ref, err := DecodeResponse(data)
			if err != nil {
				t.Fatalf("DecodeResponseInto accepted what DecodeResponse rejects: %v", err)
			}
			if !bytes.Equal(out, bytes.Join(ref.Blocks, nil)) || len(out) != 3*len(ref.Blocks) {
				t.Fatalf("decode-into blocks %q, want %q", out, ref.Blocks)
			}
			ref.Blocks = nil
			if !reflect.DeepEqual(resp, ref) {
				t.Fatalf("decode-into response %+v, want %+v", resp, ref)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			back, err := DecodeResponse(EncodeResponse(resp))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(back, resp) {
				t.Fatalf("re-encode mismatch: %+v != %+v", back, resp)
			}
		}
	})
}

// TestAppendCodecMatchesEncode pins the zero-copy append variants to the
// allocating encoders byte for byte, including when appending after an
// existing prefix (the reused-buffer case).
func TestAppendCodecMatchesEncode(t *testing.T) {
	req := &Request{Op: OpExchange, Store: "t1.data", Indices: []int64{0, 3, 7},
		WriteIndices: []int64{1, 2}, Blocks: [][]byte{[]byte("wa"), []byte("wb")},
		Session: 9, DeadlineMS: 500, TraceID: 3, SpanID: 8, Phase: "oram.flush"}
	want := EncodeRequest(req)
	if got := AppendRequest(nil, req); !bytes.Equal(got, want) {
		t.Fatalf("AppendRequest(nil) = %x, want %x", got, want)
	}
	buf := append([]byte(nil), "prefix"...)
	if got := AppendRequest(buf, req); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatal("AppendRequest after prefix diverges from EncodeRequest")
	}
	resp := &Response{Status: StatusOK, Blocks: [][]byte{[]byte("blk"), []byte("blk2")}, Slots: 7, Session: 42}
	wantR := EncodeResponse(resp)
	if got := AppendResponse(nil, resp); !bytes.Equal(got, wantR) {
		t.Fatalf("AppendResponse(nil) = %x, want %x", got, wantR)
	}
}

// TestAppendCodecReusesCapacity checks the hot-path property the client and
// server frame buffers rely on: encoding into a buffer with enough capacity
// allocates nothing.
func TestAppendCodecReusesCapacity(t *testing.T) {
	req := &Request{Op: OpWriteMany, Store: "t1.data", Indices: []int64{1, 2},
		Blocks: [][]byte{make([]byte, 4096), make([]byte, 4096)}}
	buf := make([]byte, 0, len(EncodeRequest(req))+64)
	if n := testing.AllocsPerRun(50, func() {
		buf = AppendRequest(buf[:0], req)
	}); n != 0 {
		t.Fatalf("AppendRequest into sized buffer: %.1f allocs/op, want 0", n)
	}
	resp := &Response{Blocks: [][]byte{make([]byte, 4096)}}
	rbuf := make([]byte, 0, len(EncodeResponse(resp))+64)
	if n := testing.AllocsPerRun(50, func() {
		rbuf = AppendResponse(rbuf[:0], resp)
	}); n != 0 {
		t.Fatalf("AppendResponse into sized buffer: %.1f allocs/op, want 0", n)
	}
}

// TestReadFrameIntoReuse checks that a sized buffer is reused (same backing
// array) and an undersized one grows without corrupting the payload.
func TestReadFrameIntoReuse(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 512)
	for i := 0; i < 3; i++ {
		got, err := ReadFrameInto(&stream, 0, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame %d corrupted", i)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("frame %d did not reuse the buffer", i)
		}
	}
	var small bytes.Buffer
	if err := WriteFrame(&small, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&small, 0, make([]byte, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("grown read corrupted the payload")
	}
}

// TestAppendFramedMatchesWriteFrame checks the single-write framed-append
// path (what client.roundTrip and server.serveConn send) puts exactly the
// same bytes on the wire as EncodeRequest/EncodeResponse + WriteFrame, and
// that a slab-decoded batch round-trips the payload contents intact.
func TestAppendFramedMatchesWriteFrame(t *testing.T) {
	req := &Request{Op: OpWriteMany, Store: "t1.data", Indices: []int64{4, 9},
		Blocks: [][]byte{[]byte("payload-a"), []byte("payload-b")}}
	var want bytes.Buffer
	if err := WriteFrame(&want, EncodeRequest(req)); err != nil {
		t.Fatal(err)
	}
	if got := AppendFramedRequest(nil, req); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendFramedRequest = %x, want %x", got, want.Bytes())
	}
	if got := AppendFramedRequest([]byte("pre"), req); !bytes.Equal(got, append([]byte("pre"), want.Bytes()...)) {
		t.Fatal("AppendFramedRequest after prefix diverges")
	}
	resp := &Response{Status: StatusOK, Blocks: [][]byte{[]byte("ra"), []byte("rbb")}, Slots: 3}
	var wantR bytes.Buffer
	if err := WriteFrame(&wantR, EncodeResponse(resp)); err != nil {
		t.Fatal(err)
	}
	framed := AppendFramedResponse(nil, resp)
	if !bytes.Equal(framed, wantR.Bytes()) {
		t.Fatalf("AppendFramedResponse = %x, want %x", framed, wantR.Bytes())
	}
	payload, err := ReadFrame(bytes.NewReader(framed), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blocks) != 2 || string(back.Blocks[0]) != "ra" || string(back.Blocks[1]) != "rbb" {
		t.Fatalf("slab decode corrupted blocks: %q", back.Blocks)
	}
	// The slab must be immune to later appends through one carved block.
	_ = append(back.Blocks[0], 'X')
	if string(back.Blocks[1]) != "rbb" {
		t.Fatalf("append through block 0 corrupted block 1: %q", back.Blocks[1])
	}
}
