#pragma once
/// \file telemetry.hpp
/// Telemetry for the asynchronous alignment service: lifetime counters
/// and latency percentiles, broken out per request class.
///
/// Every latency figure comes from one mechanism, the per-class
/// log-linear `latency_histogram` (metrics.hpp): each completion is
/// counted, and a percentile is the upper edge of the bucket holding
/// the exact nearest-rank sample (relative error <= 1/32).  Aggregates
/// never combine per-part percentiles — the p99 of a union is not a
/// function of the parts' p99s (one hot shard's tail disappears into a
/// mean; a sum is meaningless).  They merge the histograms bucket-wise
/// and rank the merged counts instead: the class-wide `all` figures and
/// a `service_group`'s cross-shard figures alike, through
/// `fill_latency_percentiles`.

#include <cstddef>
#include <cstdint>

#include "service/metrics.hpp"

namespace anyseq::service {

/// Priority class of one request.  Interactive traffic is admitted to
/// its own queue which the batcher always serves first; bulk requests
/// fill the machine when nothing interactive is waiting.  The adaptive
/// linger controller targets the *interactive* p99 only.
enum class request_class : std::uint8_t {
  interactive,  ///< latency-sensitive; served with strict priority
  bulk          ///< throughput traffic; yields to interactive
};
inline constexpr std::size_t n_request_classes = 2;

[[nodiscard]] const char* to_string(request_class c) noexcept;

/// Per-class slice of a service's counters.
struct class_stats {
  std::uint64_t accepted = 0;   ///< requests admitted to this class queue
  std::uint64_t rejected = 0;   ///< refused by backpressure
  std::uint64_t shed = 0;       ///< dropped by shed_oldest
  std::uint64_t quota_rejected = 0;  ///< refused by a tenant token bucket
  std::uint64_t completed = 0;  ///< finished with a result
  std::uint64_t failed = 0;     ///< finished with an error
  std::uint64_t cache_hits = 0;  ///< served from the response cache
  std::uint64_t deadline_expired = 0;  ///< shed because the deadline passed
  std::uint64_t quarantined = 0;  ///< refused at submit as repeat offenders

  /// Submit -> completion, nearest-rank over `latency_hist`: the upper
  /// edge of the bucket holding the exact rank (see
  /// fill_latency_percentiles).
  std::uint64_t p50_latency_ns = 0;
  std::uint64_t p90_latency_ns = 0;
  std::uint64_t p99_latency_ns = 0;
  std::uint64_t p999_latency_ns = 0;
  std::uint64_t latency_samples = 0;  ///< completions ranked (hist count)

  /// Log-linear latency histogram of every completion in this class;
  /// merges across shards by bucket-wise addition.
  histogram_snapshot latency_hist;
};

/// Point-in-time snapshot of a service's counters (see aligner::stats()).
/// Counters are monotonically increasing over the service lifetime;
/// `queue_depth` / `in_flight_batches` / `outstanding_tickets` are
/// instantaneous.  The top-level counters aggregate both request
/// classes; `per_class[]` holds the class-resolved slices.
struct service_stats {
  std::uint64_t accepted = 0;   ///< requests admitted to the queue
  std::uint64_t rejected = 0;   ///< submissions refused by backpressure
  std::uint64_t shed = 0;       ///< queued requests dropped by shed_oldest
  std::uint64_t quota_rejected = 0;  ///< refused by tenant token buckets
  std::uint64_t completed = 0;  ///< requests finished with a result
  /// Requests finished with an error — engine/validation failures plus
  /// shed, deadline-expired, and shutdown-failed requests (`shed` /
  /// `deadline_expired` count those subsets separately).
  /// accepted == completed + failed once drained.
  std::uint64_t failed = 0;
  /// Admitted requests shed with deadline_error because their deadline
  /// passed before execution started (subset of `failed`).
  std::uint64_t deadline_expired = 0;
  /// Submissions refused with quarantine_error because the request
  /// fingerprint is a known repeat offender (like `rejected`, these
  /// never consume admission capacity and are not part of `accepted`).
  std::uint64_t quarantined = 0;
  std::uint64_t batches = 0;    ///< engine invocations (coalesced groups)
  /// The subset of `batches` the batcher thread ran itself: those that,
  /// with the shard's backlog, fit aligner::inline_cell_bound cells, and
  /// those the pool refused.  Never above `batches`, also in a live
  /// scrape.
  std::uint64_t inline_batches = 0;
  std::uint64_t batched_requests = 0;  ///< requests summed over batches

  /// batched_requests / batches — how full the coalescer kept batches.
  double mean_batch_occupancy = 0.0;

  /// Batch score-path accounting aggregated over every executed batch
  /// (aligner::last_batch_stats sums): pairs scored on narrow SIMD lanes
  /// vs int32 (a lone pair counts by its one-thread
  /// `plan_info::precision`), the subsets of SIMD pairs that ran in
  /// lane-padded ragged chunks or alone through the striped kernel, and
  /// the padded-cell overhead the chunks relaxed.  Traceback batches
  /// count toward none of these.
  std::uint64_t batch_simd_pairs = 0;
  std::uint64_t batch_scalar_pairs = 0;
  std::uint64_t batch_ragged_pairs = 0;
  std::uint64_t batch_striped_pairs = 0;
  std::uint64_t batch_padded_cells = 0;
  /// Traceback accounting (aligner::last_batch_stats sums over
  /// batch_traceback runs and solo full-matrix tracebacks): pairs a
  /// band-doubling pass certified exact, and the band passes run.
  std::uint64_t batch_banded_pairs = 0;
  std::uint64_t batch_band_passes = 0;

  /// Submit -> completion over both classes, ranked on the bucket-wise
  /// merge of the per-class histograms.
  std::uint64_t p50_latency_ns = 0;
  std::uint64_t p90_latency_ns = 0;
  std::uint64_t p99_latency_ns = 0;
  std::uint64_t p999_latency_ns = 0;
  std::uint64_t latency_samples = 0;  ///< completions ranked, all classes

  /// Response-cache counters (all zero when no cache is attached).
  /// Hits complete at submit() and never enter the admission ring.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  /// Linger the batcher is currently applying (equals the configured
  /// max_linger unless the adaptive controller has moved it).
  std::uint64_t effective_linger_us = 0;

  /// Per-route x per-variant execution accounting recorded around the
  /// engine calls: requests, DP cells, and engine wall time (GCUPS =
  /// cells / ns — see exec_snapshot::total_gcups()).
  exec_snapshot exec;

  class_stats per_class[n_request_classes];

  std::size_t queue_depth = 0;          ///< requests waiting in admission
  std::size_t in_flight_batches = 0;    ///< batches executing right now
  /// Slot-holding tickets not yet retrieved (value tickets hold none).
  std::size_t outstanding_tickets = 0;

  [[nodiscard]] const class_stats& of(request_class c) const noexcept {
    return per_class[static_cast<std::size_t>(c)];
  }
};

/// Fill every p50/p90/p99/p999_latency_ns and latency_samples field of
/// `s` from its per-class `latency_hist`: each class from its own
/// histogram, the top-level figures from the bucket-wise merge of both.
/// `aligner::stats()` and `service_group::stats()` (after merging its
/// shards' histograms) both end here.  Allocation-free.
void fill_latency_percentiles(service_stats& s) noexcept;

/// Render `s` as Prometheus text exposition (HELP/TYPE/sample lines,
/// histogram `_bucket{le=...}` series in seconds) into `out`.  Stable
/// metric names are documented in docs/OBSERVABILITY.md.  Implemented
/// in metrics.cpp; `service::dump_metrics` / `service_group::
/// dump_metrics` wrap this with the snprintf sizing contract.
void render_prometheus(const service_stats& s, text_buffer& out);

}  // namespace anyseq::service
