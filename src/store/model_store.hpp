// Content-addressed model payload store (the "model store" subsystem).
//
// Every weight vector that enters the DAG is interned here exactly once:
//
//   * payloads are content-addressed by a 128-bit hash, so identical vectors
//     (re-published models, replayed attacks) share one entry;
//   * most payloads are stored as a bit-packed XOR *delta* against the
//     elementwise average of their base payloads — the same average the
//     publishing client trained from, so the delta is exactly the local
//     training update and compresses well once training converges;
//   * delta payloads are materialized on demand and kept in a bounded LRU of
//     decoded vectors, so hot DAG regions (tips, walk corridors) stay
//     copy-free while cold history costs only its encoded bytes;
//   * payloads whose delta chain would grow past `anchor_interval`, or whose
//     encoded delta would not actually shrink (early training, attacker
//     noise), are stored raw ("anchors") to bound reconstruction cost.
//
// Asynchronous encode pipeline: with `async_encode` on, put() commits the
// raw payload immediately and enqueues the XOR encoding on a background
// util::ThreadPool. Each entry moves through a small state machine
//
//     raw (pending) -> encoding -> delta | anchor
//
// and readers materialize from the retained raw vector until the delta
// lands, so the commit path never waits on the codec. Workers settle
// entries in put order (FIFO pool + an explicit wait for the bases to
// settle first), which makes every delta/anchor decision — and therefore
// the post-drain delta_ratio — bit-identical to synchronous encoding at
// any worker count. drain() is the barrier the runner (and the tests) use
// to wait for the queue to empty.
//
// The store is internally synchronized; readers share materialized vectors
// through shared_ptr exactly like the previous Transaction::weights field,
// so averaging and walks stay copy-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nn/model.hpp"
#include "util/thread_pool.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::store {

using WeightsPtr = std::shared_ptr<const nn::WeightVector>;

// 128-bit content hash (two independently seeded 64-bit mixes); collisions
// are negligible at any realistic payload count, so equality of hashes is
// treated as equality of content.
struct ContentHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ContentHash& a, const ContentHash& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

struct ContentHashHasher {
  std::size_t operator()(const ContentHash& h) const {
    return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ULL));
  }
};

ContentHash hash_weights(const nn::WeightVector& weights);

// Handle to an interned payload. Indexes the store's entry table.
using PayloadId = std::uint32_t;
inline constexpr PayloadId kInvalidPayload = 0xFFFFFFFFu;

struct StoreConfig {
  // Store payloads as deltas against their bases (false = every payload is
  // a raw anchor — the pre-store behavior, used as the memory baseline).
  bool delta = true;
  // Encode deltas on background workers instead of inside put(): the commit
  // path returns as soon as the raw payload is hashed and appended, and the
  // codec runs off the hot path. Results (payload contents, delta/anchor
  // decisions, post-drain delta_ratio) are bit-identical to synchronous
  // encoding at any worker count.
  bool async_encode = false;
  // Worker threads of the async encode pool (0 = one per hardware thread).
  // Ignored when async_encode is off.
  std::size_t encode_threads = 1;
  // A payload whose delta chain (hops to the nearest anchor) would exceed
  // this becomes an anchor itself. Bounds worst-case reconstruction work.
  std::size_t anchor_interval = 8;
  // Capacity of the materialized-vector LRU, in bytes.
  std::size_t lru_bytes = std::size_t{64} << 20;
  // Shard count of the evaluation cache built next to this store (consumed
  // by core::SpecializingDag, not by ModelStore itself).
  std::size_t eval_cache_shards = 16;
};

struct StoreStats {
  std::size_t payloads = 0;
  std::size_t anchors = 0;         // raw entries (incl. codec fallbacks)
  std::size_t deltas = 0;          // delta-encoded entries
  std::size_t pending_encodes = 0;  // queued/in-flight async encodes (raw until settled)
  std::size_t peak_pending_encodes = 0;  // high-water mark of the encode queue
  std::size_t async_encoded = 0;   // entries settled through the background pipeline
  std::size_t dedup_hits = 0;      // put() calls answered by an existing entry
  std::size_t resident_payload_bytes = 0;  // raw anchors + pending raws + encoded deltas
  std::size_t full_payload_bytes = 0;      // what full-vector storage would hold
  std::size_t lru_bytes = 0;
  std::size_t lru_entries = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;    // materializations that had to decode
  std::uint64_t decoded_payloads = 0;  // total delta decodes performed
  // Total wall time spent in the XOR codec + base materialization for
  // encoding, wherever it ran (inline in put() or on the async workers).
  double encode_seconds = 0.0;

  // Resident fraction of the full-vector baseline (1.0 when delta is off).
  double delta_ratio() const {
    return full_payload_bytes == 0
               ? 1.0
               : static_cast<double>(resident_payload_bytes) /
                     static_cast<double>(full_payload_bytes);
  }
  double lru_hit_rate() const {
    const double total = static_cast<double>(lru_hits + lru_misses);
    return total == 0.0 ? 0.0 : static_cast<double>(lru_hits) / total;
  }
};

class ModelStore {
 public:
  explicit ModelStore(StoreConfig config = {});
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  // Interns `weights`. `bases` are the payloads of the new payload's parent
  // transactions; when delta storage is enabled the vector is encoded
  // against their elementwise average (the exact base the publisher trained
  // from). An empty `bases` forces an anchor. Returns the id of the interned
  // (or pre-existing identical) payload. With async_encode the encoding is
  // deferred to the background pool and this returns immediately.
  // `encode_base`, when given, must be the average of the bases' payloads
  // (what base_vector_locked would compute — decode recomputes that average,
  // so a mismatching hint would corrupt the payload). Publishers already
  // hold this vector as their training start point; passing it here skips
  // re-materializing and re-averaging the bases on the encode path. A hint
  // of the wrong length is ignored.
  PayloadId put(WeightsPtr weights, const std::vector<PayloadId>& bases,
                WeightsPtr encode_base = nullptr);

  // Materializes the payload (LRU-cached for delta entries; entries still
  // awaiting their async encode serve the retained raw vector). The
  // returned vector is bit-identical to the one passed to put().
  WeightsPtr get(PayloadId id) const;

  ContentHash hash_of(PayloadId id) const;
  std::size_t num_floats(PayloadId id) const;
  std::size_t size() const;

  // Blocks until every queued/in-flight async encode has settled (no-op in
  // synchronous mode). The runner calls this at run end; tests use it as
  // the barrier before asserting delta_ratio.
  void drain() const;

  // Background encode workers (0 in synchronous mode).
  std::size_t encode_workers() const { return encode_pool_ ? encode_pool_->size() : 0; }

  // Cumulative nanoseconds of encode work done inline in put() — the part
  // of the codec cost that sits on the caller's (commit) path. The
  // simulators sample this around their commit sections to split the
  // `encode` perf bucket out of `commit`.
  std::uint64_t encode_nanos_inline() const {
    return encode_nanos_inline_.load(std::memory_order_relaxed);
  }
  // Cumulative nanoseconds of encode work done on the background pool.
  std::uint64_t encode_nanos_async() const {
    return encode_nanos_async_.load(std::memory_order_relaxed);
  }

  StoreStats stats() const;
  const StoreConfig& config() const { return config_; }

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  // Lifecycle of an entry's payload representation. Sync puts settle
  // immediately (kAnchor or kDelta); async puts pass through kEncoding.
  enum class EntryState : std::uint8_t { kAnchor, kEncoding, kDelta };

  struct Entry {
    ContentHash hash;
    EntryState state = EntryState::kAnchor;
    std::uint32_t num_floats = 0;
    std::uint32_t chain_depth = 0;  // 0 for anchors
    std::vector<PayloadId> bases;   // empty for anchors
    std::vector<std::uint8_t> encoded;  // delta entries only
    WeightsPtr raw;  // anchors stay materialized; pending entries hold it too
    WeightsPtr encode_base;  // put()'s base hint, held until the async encode
  };

  struct LruNode {
    WeightsPtr vector;
    std::list<PayloadId>::iterator position;
  };

  // Requires entries_mutex_ (shared suffices); takes lru_mutex_ internally.
  WeightsPtr materialize_locked(PayloadId id) const;
  nn::WeightVector base_vector_locked(const std::vector<PayloadId>& bases) const;
  void lru_insert(PayloadId id, WeightsPtr vector) const;
  // Background worker: waits for `id`'s bases to settle, encodes, and flips
  // the entry to its final state (kDelta or kAnchor fallback). The outer
  // wrapper converts an encode failure into a raw-anchor fallback instead
  // of letting the exception escape the pool worker.
  void encode_async(PayloadId id);
  void encode_async_impl(PayloadId id);

  const StoreConfig config_;

  // Lock order: entries_mutex_ before encode_mutex_ before lru_mutex_ (each
  // may be taken alone; never in reverse). Entries are append-only and
  // immutable once *settled*; pending entries are flipped exactly once by
  // their encode worker under the exclusive lock. Readers share
  // entries_mutex_ (raw anchors and pending raws are returned without ever
  // touching the LRU lock); put() takes it exclusively to append. The LRU
  // bookkeeping has its own short-lived mutex so concurrent walkers only
  // serialize on the cache update, not on whole-chain decodes. Two threads
  // may race to decode the same payload — both produce the bit-identical
  // vector, one insert wins, the duplicate work is benign.
  mutable std::shared_mutex entries_mutex_;
  std::vector<Entry> entries_;
  std::unordered_map<ContentHash, PayloadId, ContentHashHasher> by_hash_;
  std::size_t full_payload_bytes_ = 0;      // guarded by entries_mutex_
  std::size_t resident_payload_bytes_ = 0;  // guarded by entries_mutex_
  std::size_t dedup_hits_ = 0;              // guarded by entries_mutex_
  std::size_t anchor_count_ = 0;            // guarded by entries_mutex_
  std::size_t async_encoded_ = 0;           // guarded by entries_mutex_

  // --- async encode pipeline ----------------------------------------------
  // unsettled_ tracks entries still in flight; workers wait on encode_cv_
  // for their bases to leave the set, drain() waits for it to empty. The
  // pool is declared last so its destructor (which completes every queued
  // task) runs while the rest of the store is still alive.
  mutable std::mutex encode_mutex_;
  mutable std::condition_variable encode_cv_;
  mutable std::unordered_set<PayloadId> unsettled_;  // guarded by encode_mutex_
  std::size_t peak_pending_ = 0;                     // guarded by encode_mutex_
  std::atomic<std::uint64_t> encode_nanos_inline_{0};
  std::atomic<std::uint64_t> encode_nanos_async_{0};

  // Materialized delta payloads, most recently used first.
  mutable std::mutex lru_mutex_;
  mutable std::list<PayloadId> lru_order_;
  mutable std::unordered_map<PayloadId, LruNode> lru_;
  mutable std::size_t lru_bytes_ = 0;
  mutable std::uint64_t lru_hits_ = 0;
  mutable std::uint64_t lru_misses_ = 0;
  mutable std::uint64_t decoded_payloads_ = 0;

  std::unique_ptr<ThreadPool> encode_pool_;  // null in synchronous mode
};

}  // namespace specdag::store
