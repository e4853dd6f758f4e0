// Package shard is the client-side fan-out router that partitions one
// logical block store over N independent block servers — the step from one
// ojoinserver box toward Jodes-style distributed scale (PAPERS.md).
//
// A Router implements storage.BatchStore and storage.ExchangeStore over N
// sub-stores. Global block index i lives on shard i mod N at local index
// i div N (ShardOf / LocalIndex), a striping that is a pure function of the
// index and the shard count. Each ReadMany/WriteMany/Exchange batch is
// split by that function into per-shard sub-batches, fanned out to the
// owning shards in parallel goroutines, and merged back position-by-
// position into one logical response. A Pool owns the per-shard transports
// and hands out Routers through the storage.Opener seam, so the ORAM
// layer, the table layer, and the deferred-eviction scheduler run over
// shards without modification.
//
// # Obliviousness invariant
//
// The shard assignment depends only on the block index and the (public)
// shard count — never on block contents, keys, or the position map. Every
// per-shard trace is therefore exactly the image of the proven
// single-server trace under the projection i ↦ (i mod N, i div N): the
// adversary observing shard s sees the subsequence of the global trace
// with index ≡ s (mod N), re-numbered, and nothing else. A coalition of
// all N shards can reassemble precisely the single-server trace that
// Definition 1 already bounds; any subset sees a fixed projection of it
// (DESIGN.md §2.12). The Router meters each logical batch as ONE network
// round with its global indices, so round counts, traces, and the
// tracecheck suite are identical with 1 or N shards; per-shard request
// counts are exposed separately through Stats.
//
// # Concurrency contract
//
// A Router is safe for concurrent use exactly when its sub-stores are
// (remote.Client and storage.MemStore both are): it holds no mutable state
// of its own besides atomic per-shard counters (and pooled staging
// buffers), and a single logical batch runs one goroutine per involved
// shard. Each shard's blocks are copied only to that shard's own positions
// in the caller's read buffer, so no locks are needed on the response
// path.
//
// # Failure atomicity
//
// A batch is validated in full — range and payload sizes, using the global
// geometry — before anything is sent, so a malformed batch touches no
// shard. After fan-out, each sub-batch commits or fails atomically on its
// own shard (every backend validates a whole batch before applying it, and
// the disk backend's WAL makes application all-or-nothing); a transport
// failure on one shard therefore never leaves THAT shard partially
// written, though sibling shards may have committed their sub-batches. That
// cross-shard partiality is safe for the same reason client retries are:
// block writes carry absolute indices and absolute contents, and the ORAM
// scheduler commits its stash/pending state only after the whole router
// call succeeds, so a retry re-issues the identical sub-batches
// (DESIGN.md §2.12).
package shard
