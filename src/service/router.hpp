#pragma once
/// \file router.hpp
/// `service_group`: an N-shard router over `service::aligner` instances,
/// fronted by one shared response cache.
///
/// A single service serializes all admission through one mutex and one
/// batcher thread; past a few hundred thousand requests per second that
/// becomes the bottleneck long before the alignment kernels do.  The
/// group runs N independent service shards — separate slot arrays,
/// admission rings, and batcher threads — and routes each submission:
///
///   * **Hash affinity.**  The home shard is `sequence_hash(query) % N`.
///     Repeated queries land on the same shard, so its batcher sees
///     runs of identical shapes (full SIMD lanes) and its portion of
///     the working set stays hot in cache.
///   * **Load spill.**  Affinity alone lets one hot query wedge a shard
///     while others idle.  When the home shard's queue depth exceeds
///     the least-loaded shard's by more than `spill_margin`, the
///     request spills to the least-loaded shard instead.  Depth reads
///     are relaxed-atomic mirrors (`aligner::approx_queue_depth`) — no
///     cross-shard lock is ever taken on the submit path.
///   * **Shared cache.**  All shards front the same `response_cache`,
///     so a result computed by any shard serves hits on every other —
///     and a spilled request still hits the entry its home shard
///     inserted.  (Per-shard caches would re-misse on every spill.)
///
/// `stats()` merges per-shard telemetry the only correct way: counters
/// are summed, latency histograms are summed bucket-wise, and the
/// percentiles are ranked on the merged histograms
/// (`fill_latency_percentiles`) — summing or averaging per-shard p99s
/// is statistically meaningless.
///
/// Tickets returned by the group are ordinary `service::ticket`s bound
/// to the shard that owns the request; the group must outlive them,
/// same as a single service.

#include <cstdint>
#include <memory>
#include <vector>

#include "service/cache.hpp"
#include "service/service.hpp"
#include "service/telemetry.hpp"

namespace anyseq::service {

/// N-shard service router with a shared response cache.  Thread-safe:
/// any number of producers may submit concurrently.
class service_group {
 public:
  struct config {
    /// Number of service shards (clamped to >= 1).  Each shard owns a
    /// full `service::aligner` — slot array, rings, batcher thread.
    std::size_t shards = 1;
    /// Configuration applied to every shard.  The cache fields
    /// (`cache_capacity`, `shared_cache`) are overridden by the group,
    /// which owns the one shared cache.
    service::config shard;
    /// Shared response-cache capacity across all shards (0 = no cache).
    std::size_t cache_capacity = 4096;
    std::size_t cache_shards = 8;
    /// Spill threshold: a request leaves its home shard when the home
    /// queue depth exceeds the least-loaded shard's depth by more than
    /// this many requests.  0 spills on any imbalance; a large value
    /// approaches pure hash affinity.
    std::size_t spill_margin = 16;
  };

  service_group() : service_group(config{}) {}
  explicit service_group(config cfg);

  /// Equivalent to shutdown(true).
  ~service_group();

  service_group(const service_group&) = delete;
  service_group& operator=(const service_group&) = delete;

  /// Route one request (affinity + spill, see file comment) and submit
  /// it to the chosen shard.  Same contract and exceptions as
  /// `aligner::submit`; the returned ticket is bound to that shard.
  [[nodiscard]] ticket submit(stage::seq_view q, stage::seq_view s,
                              const align_options& opt = {},
                              const submit_options& so = {});

  /// String-copying variant (see `aligner::submit_strings`).
  [[nodiscard]] ticket submit_strings(std::string_view q, std::string_view s,
                                      const align_options& opt = {},
                                      const submit_options& so = {});

  /// Merged snapshot: counters and latency histograms summed across
  /// shards, percentiles ranked on the merged histograms, cache
  /// figures from the shared cache.  `effective_linger_us` reports the
  /// maximum across shards (the most conservative figure).
  [[nodiscard]] service_stats stats() const;

  /// Render the group's merged metrics as Prometheus text exposition
  /// into `buf` (snprintf contract: returns bytes needed excluding the
  /// NUL, writes at most `cap - 1` plus a NUL).  Merged series follow
  /// the single-service rules — histograms sum bucket-wise, quantiles
  /// rank the merged histograms — and a trailing
  /// per-shard section (`anyseq_shard_*{shard="i"}`) keeps the shard
  /// breakdown visible after the merge.
  std::size_t dump_metrics(char* buf, std::size_t cap) const;

  /// Shut every shard down (drain semantics as `aligner::shutdown`).
  /// Idempotent; the destructor calls shutdown(true).
  void shutdown(bool drain = true);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Direct access to one shard (tests and diagnostics).
  [[nodiscard]] aligner& shard(std::size_t i) { return *shards_[i]; }

  /// The shared cache; nullptr when caching is disabled.
  [[nodiscard]] response_cache* cache() const noexcept {
    return cache_.get();
  }

 private:
  /// Affinity + spill routing decision for query `q` (lock-free).
  [[nodiscard]] std::size_t pick_shard(stage::seq_view q) const;

  config cfg_;
  std::unique_ptr<response_cache> cache_;
  std::vector<std::unique_ptr<aligner>> shards_;
};

}  // namespace anyseq::service
