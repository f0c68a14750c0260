/// \file metrics.cpp
/// Execution-table axis names and the Prometheus text-exposition
/// renderer.  Metric names emitted here are the stable scrape contract
/// documented in docs/OBSERVABILITY.md — changing one is a breaking
/// change for any dashboard built on it.

#include "service/metrics.hpp"

#include <cstring>

#include "service/telemetry.hpp"

namespace anyseq::service {

const char* exec_route_name(std::size_t i) noexcept {
  switch (i) {
    case 0: return "batch_score";
    case 1: return "batch_traceback";
    case 2: return "solo";
  }
  return "?";
}

const char* exec_variant_name(std::size_t i) noexcept {
  switch (i) {
    case 0: return "scalar";
    case 1: return "avx2";
    case 2: return "avx512";
    case 3: return "other";
  }
  return "?";
}

std::size_t exec_variant_index(const char* variant) noexcept {
  if (variant == nullptr) return 3;
  if (std::strcmp(variant, "scalar") == 0) return 0;
  if (std::strcmp(variant, "avx2") == 0) return 1;
  if (std::strcmp(variant, "avx512") == 0) return 2;
  return 3;
}

namespace {

using u64 = unsigned long long;

/// One `_bucket` series per octave, `le` = 2^(o+1) - 1 ns: sub-buckets
/// nest inside octaves, so each edge's cumulative count sums every
/// sub-bucket at or below it and the series match a plain log2
/// histogram's for the same latencies.
void render_class_histogram(text_buffer& out, const char* cls,
                            const histogram_snapshot& h) {
  std::uint64_t cumulative = 0;
  std::size_t i = 0;
  for (std::size_t o = 0; o < n_latency_octaves; ++o) {
    const std::uint64_t le = (std::uint64_t{2} << o) - 1;
    for (; i <= latency_histogram::bucket_of(le); ++i)
      cumulative += h.buckets[i];
    out.printf(
        "anyseq_request_latency_seconds_bucket{class=\"%s\",le=\"%.16g\"} "
        "%llu\n",
        cls, static_cast<double>(le) * 1e-9, static_cast<u64>(cumulative));
  }
  out.printf(
      "anyseq_request_latency_seconds_bucket{class=\"%s\",le=\"+Inf\"} %llu\n",
      cls, static_cast<u64>(h.count));
  out.printf("anyseq_request_latency_seconds_sum{class=\"%s\"} %.9f\n", cls,
             static_cast<double>(h.sum_ns) * 1e-9);
  out.printf("anyseq_request_latency_seconds_count{class=\"%s\"} %llu\n", cls,
             static_cast<u64>(h.count));
}

void render_quantiles(text_buffer& out, const char* cls, std::uint64_t p50,
                      std::uint64_t p90, std::uint64_t p99,
                      std::uint64_t p999) {
  const struct {
    const char* q;
    std::uint64_t ns;
  } rows[] = {{"0.5", p50}, {"0.9", p90}, {"0.99", p99}, {"0.999", p999}};
  for (const auto& r : rows)
    out.printf(
        "anyseq_request_latency_quantile_seconds{class=\"%s\","
        "quantile=\"%s\"} %.9f\n",
        cls, r.q, static_cast<double>(r.ns) * 1e-9);
}

}  // namespace

void render_prometheus(const service_stats& s, text_buffer& out) {
  // -- Request outcomes, class-resolved.  The top-level aggregates in
  // service_stats are sums of these series, so they are not re-emitted.
  out.printf(
      "# HELP anyseq_requests_total Requests by class and final outcome.\n"
      "# TYPE anyseq_requests_total counter\n");
  for (std::size_t c = 0; c < n_request_classes; ++c) {
    const class_stats& cs = s.per_class[c];
    const char* cls = to_string(static_cast<request_class>(c));
    const struct {
      const char* outcome;
      std::uint64_t v;
    } rows[] = {
        {"accepted", cs.accepted},
        {"rejected", cs.rejected},
        {"shed", cs.shed},
        {"quota_rejected", cs.quota_rejected},
        {"completed", cs.completed},
        {"failed", cs.failed},
        {"cache_hit", cs.cache_hits},
        {"deadline_expired", cs.deadline_expired},
        {"quarantined", cs.quarantined},
    };
    for (const auto& r : rows)
      out.printf("anyseq_requests_total{class=\"%s\",outcome=\"%s\"} %llu\n",
                 cls, r.outcome, static_cast<u64>(r.v));
  }

  // -- Batching.
  out.printf(
      "# HELP anyseq_batches_total Engine invocations (coalesced groups).\n"
      "# TYPE anyseq_batches_total counter\n"
      "anyseq_batches_total %llu\n",
      static_cast<u64>(s.batches));
  out.printf(
      "# HELP anyseq_batches_inline_total Batches the batcher thread ran "
      "itself instead of handing them to the pool.\n"
      "# TYPE anyseq_batches_inline_total counter\n"
      "anyseq_batches_inline_total %llu\n",
      static_cast<u64>(s.inline_batches));
  out.printf(
      "# HELP anyseq_batched_requests_total Requests summed over batches.\n"
      "# TYPE anyseq_batched_requests_total counter\n"
      "anyseq_batched_requests_total %llu\n",
      static_cast<u64>(s.batched_requests));
  out.printf(
      "# HELP anyseq_mean_batch_occupancy Mean requests per batch.\n"
      "# TYPE anyseq_mean_batch_occupancy gauge\n"
      "anyseq_mean_batch_occupancy %.6f\n",
      s.mean_batch_occupancy);

  // -- Batch score paths: pairs by kernel (ragged and striped are
  // subsets of simd; scalar is int32 rolling).
  out.printf(
      "# HELP anyseq_batch_pairs_total Batch score-path pairs by kernel "
      "path.\n"
      "# TYPE anyseq_batch_pairs_total counter\n"
      "anyseq_batch_pairs_total{path=\"simd\"} %llu\n"
      "anyseq_batch_pairs_total{path=\"scalar\"} %llu\n"
      "anyseq_batch_pairs_total{path=\"ragged\"} %llu\n"
      "anyseq_batch_pairs_total{path=\"striped\"} %llu\n",
      static_cast<u64>(s.batch_simd_pairs),
      static_cast<u64>(s.batch_scalar_pairs),
      static_cast<u64>(s.batch_ragged_pairs),
      static_cast<u64>(s.batch_striped_pairs));
  out.printf(
      "# HELP anyseq_batch_padded_cells_total Padding cells the lane-padded "
      "batch chunks relaxed.\n"
      "# TYPE anyseq_batch_padded_cells_total counter\n"
      "anyseq_batch_padded_cells_total %llu\n",
      static_cast<u64>(s.batch_padded_cells));
  out.printf(
      "# HELP anyseq_batch_traceback_band_total Band doubling in traceback "
      "batches and solo full-matrix tracebacks: pairs certified exact in a "
      "band, and band passes run.\n"
      "# TYPE anyseq_batch_traceback_band_total counter\n"
      "anyseq_batch_traceback_band_total{count=\"banded_pairs\"} %llu\n"
      "anyseq_batch_traceback_band_total{count=\"band_passes\"} %llu\n",
      static_cast<u64>(s.batch_banded_pairs),
      static_cast<u64>(s.batch_band_passes));

  // -- Response cache.
  out.printf(
      "# HELP anyseq_cache_events_total Response-cache events.\n"
      "# TYPE anyseq_cache_events_total counter\n"
      "anyseq_cache_events_total{event=\"hit\"} %llu\n"
      "anyseq_cache_events_total{event=\"miss\"} %llu\n"
      "anyseq_cache_events_total{event=\"eviction\"} %llu\n",
      static_cast<u64>(s.cache_hits), static_cast<u64>(s.cache_misses),
      static_cast<u64>(s.cache_evictions));

  // -- Execution accounting (GCUPS numerator/denominator per route x
  // variant).  Cells that never executed are omitted — absent series
  // read as zero.
  out.printf(
      "# HELP anyseq_exec_requests_total Requests executed, by route and "
      "engine variant.\n"
      "# TYPE anyseq_exec_requests_total counter\n");
  for (std::size_t r = 0; r < n_exec_routes; ++r)
    for (std::size_t v = 0; v < n_exec_variants; ++v) {
      const exec_cell& e = s.exec.at[r][v];
      if (e.requests == 0) continue;
      out.printf(
          "anyseq_exec_requests_total{route=\"%s\",variant=\"%s\"} %llu\n",
          exec_route_name(r), exec_variant_name(v),
          static_cast<u64>(e.requests));
    }
  out.printf(
      "# HELP anyseq_exec_cells_total DP cells relaxed, by route and engine "
      "variant.\n"
      "# TYPE anyseq_exec_cells_total counter\n");
  for (std::size_t r = 0; r < n_exec_routes; ++r)
    for (std::size_t v = 0; v < n_exec_variants; ++v) {
      const exec_cell& e = s.exec.at[r][v];
      if (e.requests == 0) continue;
      out.printf("anyseq_exec_cells_total{route=\"%s\",variant=\"%s\"} %llu\n",
                 exec_route_name(r), exec_variant_name(v),
                 static_cast<u64>(e.cells));
    }
  out.printf(
      "# HELP anyseq_exec_seconds_total Engine wall time, by route and "
      "engine variant.\n"
      "# TYPE anyseq_exec_seconds_total counter\n");
  for (std::size_t r = 0; r < n_exec_routes; ++r)
    for (std::size_t v = 0; v < n_exec_variants; ++v) {
      const exec_cell& e = s.exec.at[r][v];
      if (e.requests == 0) continue;
      out.printf(
          "anyseq_exec_seconds_total{route=\"%s\",variant=\"%s\"} %.9f\n",
          exec_route_name(r), exec_variant_name(v),
          static_cast<double>(e.ns) * 1e-9);
    }
  out.printf(
      "# HELP anyseq_exec_gcups Aggregate engine throughput in giga-cell "
      "updates per second.\n"
      "# TYPE anyseq_exec_gcups gauge\n"
      "anyseq_exec_gcups %.6f\n",
      s.exec.total_gcups());

  // -- Latency: histogram per class (shard-mergeable) ...
  out.printf(
      "# HELP anyseq_request_latency_seconds Submit-to-complete latency.\n"
      "# TYPE anyseq_request_latency_seconds histogram\n");
  for (std::size_t c = 0; c < n_request_classes; ++c)
    render_class_histogram(out, to_string(static_cast<request_class>(c)),
                           s.per_class[c].latency_hist);

  // ... plus the nearest-rank quantiles of those histograms ("all"
  // ranks the classes' bucket-wise merge, never a combination of
  // per-class ranks).
  out.printf(
      "# HELP anyseq_request_latency_quantile_seconds Nearest-rank latency "
      "quantiles, upper edge of the log-linear histogram bucket.\n"
      "# TYPE anyseq_request_latency_quantile_seconds gauge\n");
  for (std::size_t c = 0; c < n_request_classes; ++c) {
    const class_stats& cs = s.per_class[c];
    render_quantiles(out, to_string(static_cast<request_class>(c)),
                     cs.p50_latency_ns, cs.p90_latency_ns, cs.p99_latency_ns,
                     cs.p999_latency_ns);
  }
  render_quantiles(out, "all", s.p50_latency_ns, s.p90_latency_ns,
                   s.p99_latency_ns, s.p999_latency_ns);

  // -- Instantaneous state.
  out.printf(
      "# HELP anyseq_queue_depth Requests waiting in admission rings.\n"
      "# TYPE anyseq_queue_depth gauge\n"
      "anyseq_queue_depth %llu\n",
      static_cast<u64>(s.queue_depth));
  out.printf(
      "# HELP anyseq_in_flight_batches Batches executing right now.\n"
      "# TYPE anyseq_in_flight_batches gauge\n"
      "anyseq_in_flight_batches %llu\n",
      static_cast<u64>(s.in_flight_batches));
  out.printf(
      "# HELP anyseq_outstanding_tickets Slot-holding tickets not yet "
      "retrieved.\n"
      "# TYPE anyseq_outstanding_tickets gauge\n"
      "anyseq_outstanding_tickets %llu\n",
      static_cast<u64>(s.outstanding_tickets));
  out.printf(
      "# HELP anyseq_effective_linger_seconds Linger the batcher currently "
      "applies.\n"
      "# TYPE anyseq_effective_linger_seconds gauge\n"
      "anyseq_effective_linger_seconds %.6f\n",
      static_cast<double>(s.effective_linger_us) * 1e-6);
}

}  // namespace anyseq::service
