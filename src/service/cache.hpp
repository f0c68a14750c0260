#pragma once
/// \file cache.hpp
/// Response cache for the serving tier: a fixed-capacity sharded hash
/// table in front of the admission ring, keyed on
/// (query bytes, subject bytes, options fingerprint).
///
/// Real alignment traffic is heavily repetitive — the same read against
/// the same reference region, the same probe pair from many clients — and
/// a cache hit costs a hash + byte-compare + copy-out instead of an
/// entire DP pass.  The design goals mirror the rest of the service
/// layer:
///
///   * **Bounded memory, zero steady-state heap.**  Every entry's key
///     buffers (encoded query/subject copies) and its stored
///     `alignment_result` are recycled in place when the entry is
///     overwritten or evicted: once the table has warmed to the working
///     set's shapes, hits, inserts, and evictions perform no heap
///     allocations (results that carry traceback strings larger than any
///     previously seen are the usual exception).
///   * **Sharded locking.**  The table is split into power-of-two shards,
///     each with its own mutex, so concurrent producers probing different
///     shards never serialize.  One shard's critical section is a probe
///     walk plus a copy — no alignment work ever runs under a cache lock.
///   * **LRU-clock eviction.**  Each entry carries a reference bit set on
///     hit.  Inserting into a full probe window walks it clock-wise from
///     a roving hand, granting one second chance (ref 1 -> 0) before
///     evicting — LRU-approximate without any list maintenance on hits.
///
/// Correctness: a hit requires byte equality of both sequences AND
/// dispatch-equivalent options (`options_compatible`, the same predicate
/// the batcher uses), so two requests that could produce different bytes
/// can never share an entry.  Only successful results are inserted; the
/// cached bytes are exactly what the engine produced, so a hit is
/// byte-identical to a fresh `align()` by construction.
///
/// The cache is a standalone component: `service::aligner` consults one
/// at `submit()` (hits complete immediately and never enter the admission
/// ring) and `service_group` shares a single cache across all shards so
/// a result computed by one shard serves hits on every other.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "anyseq/anyseq.hpp"

namespace anyseq::service {

/// Lifetime counters of a response cache (monotonic; relaxed reads).
/// Hits and misses are the service's to count, per class
/// (`service_stats::cache_hits` / `cache_misses`): a counter here would
/// cost every lookup a shared read-modify-write.
struct cache_stats {
  std::uint64_t insertions = 0;  ///< results stored (incl. overwrites)
  std::uint64_t evictions = 0;   ///< live entries displaced by the clock
  std::size_t entries = 0;       ///< live entries right now
  std::size_t capacity = 0;      ///< fixed entry capacity
};

/// Fixed-capacity sharded response cache (see file comment).
/// Thread-safe; all methods may be called concurrently.
class response_cache {
 public:
  struct config {
    /// Total entry capacity across all shards.  Rounded up so every
    /// shard holds the same power-of-two slot count; clamped to >= 1.
    std::size_t capacity = 4096;
    /// Lock shards; rounded down to a power of two, clamped to [1, 256].
    std::size_t shards = 8;
  };

  /// Allocates the whole table up front; entry payload buffers grow
  /// lazily to the working set and are recycled thereafter.
  response_cache() : response_cache(config{}) {}
  explicit response_cache(config cfg);

  /// Probe for (q, s, opt), whose `cache_key_hash` the caller passes as
  /// `hash` (the service hashes a request once and reuses the value).  On
  /// a hit, copy the stored result into `out` (recycling `out`'s string
  /// capacity) and return true.
  [[nodiscard]] bool lookup(stage::seq_view q, stage::seq_view s,
                            const align_options& opt, std::uint64_t hash,
                            alignment_result& out);

  /// Store a successful result under (q, s, opt), whose `cache_key_hash`
  /// is `hash`, overwriting a matching entry or clock-evicting within the
  /// key's probe window.  Key bytes and result are copied into
  /// entry-owned recycled storage — the caller
  /// keeps ownership of its buffers.  The copies can throw
  /// `std::bad_alloc`; the entry then is left out of the table (the one
  /// it replaced is gone), so a lookup never sees a half-written entry.
  void insert(stage::seq_view q, stage::seq_view s, const align_options& opt,
              std::uint64_t hash, const alignment_result& r);

  /// Drop every entry (capacity and warmed buffers are kept).
  void clear();

  [[nodiscard]] cache_stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept;

 private:
  /// Entries whose slot a key may occupy: the probe window walked by
  /// both lookup and the eviction clock.
  static constexpr std::size_t probe_window = 8;

  struct entry {
    bool used = false;
    std::uint8_t ref = 0;  ///< clock reference bit, set on hit
    std::uint64_t hash = 0;
    std::vector<char_t> q, s;  ///< key bytes, recycled on overwrite
    align_options opt{};
    alignment_result result;  ///< payload, recycled on overwrite
  };

  /// One lock shard on cache lines of its own: a probe writes its
  /// mutex, and a neighbour's clock hand or live count must not share
  /// that line.
  struct alignas(64) shard {
    mutable std::mutex m;
    std::vector<entry> slots;
    std::size_t hand = 0;  ///< roving clock start within a window
    std::size_t live = 0;
  };

  [[nodiscard]] shard& shard_for(std::uint64_t hash) noexcept;
  [[nodiscard]] std::size_t slot_base(const shard& sh,
                                      std::uint64_t hash) const noexcept;

  std::vector<shard> shards_;
  std::size_t slots_per_shard_ = 0;  ///< power of two
  std::size_t shard_mask_ = 0;

  std::atomic<std::uint64_t> insertions_{0}, evictions_{0};
};

/// 64-bit hash of the cache key: the query length, query bytes, subject
/// bytes, and the dispatch-relevant option fields (exactly the set
/// `options_compatible` compares, so hash equality is consistent with
/// key equality).  Bytes are folded 16 at a time by one 64x64->128
/// multiply, each option field is one word, and the byte count enters
/// the finish (DESIGN.md §13).  The one key hash of the service: cache
/// slots, quarantine and fault-poison fingerprints, and tests.
[[nodiscard]] std::uint64_t cache_key_hash(stage::seq_view q,
                                           stage::seq_view s,
                                           const align_options& opt) noexcept;

/// The same word-at-a-time hash over one sequence's bytes alone — the
/// router's affinity key (all options and the subject excluded, so one
/// query pins to one shard).
[[nodiscard]] std::uint64_t sequence_hash(stage::seq_view q) noexcept;

}  // namespace anyseq::service
