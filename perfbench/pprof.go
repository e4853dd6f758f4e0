package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file reads the client's runtime/pprof CPU profile (a gzipped
// profile.proto message) without third-party code, and attributes each
// sample to a layer of the repository.

// cpuSample is one profile sample: CPU time and stack, leaf first.
type cpuSample struct {
	ns    int64
	stack []string
}

// parseProfile decodes the samples of a CPU profile.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as a string index
		samples   []rawSample
		funcNames = make(map[uint64]int64)    // function id -> name index
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendUints(s.locs, v, d)
				case 2:
					for _, u := range appendUints(nil, v, d) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			continue
		}
		cs := cpuSample{ns: s.vals[cpu]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks the top-level fields of a protobuf message. Varint fields
// pass their value, length-delimited ones their bytes; fixed-width fields
// are skipped (profile.proto uses none the ledger reads).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendUints appends a repeated integer field that arrived either as one
// varint (v) or packed (data).
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// frameLayer names the repository layer a function belongs to, or "" for
// code outside the repository (standard library, runtime).
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "oblivjoin/internal/"):
		rest := fn[len("oblivjoin/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	case strings.HasPrefix(fn, "oblivjoin."):
		return "facade"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// sampleLayer attributes a sample to the innermost repository frame, so
// crypto/aes lands in xcrypto and memmove in its caller. Samples with no
// repository frame at all are "runtime" (GC workers, scheduler) or
// "other".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return "other"
		}
	}
	return "runtime"
}

// allocGCFuncs are runtime entry points of the allocator and the garbage
// collector.
var allocGCFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.gcBgMarkWorker",
	"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcWriteBarrier", "runtime.wbBuf",
}

// inAllocGC reports whether the sample's leaf is allocator or GC work: some
// frame of the runtime-only run at the leaf end of the stack is one of
// allocGCFuncs.
func inAllocGC(stack []string) bool {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return false
		}
		for _, p := range allocGCFuncs {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}
