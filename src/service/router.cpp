/// \file router.cpp
/// service_group internals: shard construction with a shared cache,
/// affinity + spill routing, and merged telemetry.

#include "service/router.hpp"

#include <algorithm>

namespace anyseq::service {

service_group::service_group(config cfg) : cfg_(cfg) {
  cfg_.shards = std::max<std::size_t>(1, cfg_.shards);

  if (cfg_.cache_capacity > 0)
    cache_ = std::make_unique<response_cache>(
        response_cache::config{cfg_.cache_capacity, cfg_.cache_shards});

  service::config shard_cfg = cfg_.shard;
  shard_cfg.cache_capacity = 0;  // the group owns the one cache
  shard_cfg.shared_cache = cache_.get();

  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<aligner>(shard_cfg));
}

service_group::~service_group() { shutdown(true); }

std::size_t service_group::pick_shard(stage::seq_view q) const {
  const std::size_t n = shards_.size();
  if (n == 1) return 0;  // one shard: no affinity to hash
  const std::size_t home = static_cast<std::size_t>(sequence_hash(q) % n);

  // Spill decision on relaxed-atomic depth mirrors: find the
  // least-loaded shard and leave home only when the imbalance exceeds
  // the margin.  The reads race with admission, so the decision can be
  // a few requests stale — acceptable for load balancing, and the only
  // alternative is a cross-shard lock on every submit.
  const std::size_t home_depth = shards_[home]->approx_queue_depth();
  if (home_depth <= cfg_.spill_margin) return home;  // cheap fast path
  std::size_t best = home, best_depth = home_depth;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = shards_[i]->approx_queue_depth();
    if (d < best_depth) {
      best = i;
      best_depth = d;
    }
  }
  return home_depth > best_depth + cfg_.spill_margin ? best : home;
}

ticket service_group::submit(stage::seq_view q, stage::seq_view s,
                             const align_options& opt,
                             const submit_options& so) {
  return shards_[pick_shard(q)]->submit(q, s, opt, so);
}

ticket service_group::submit_strings(std::string_view q, std::string_view s,
                                     const align_options& opt,
                                     const submit_options& so) {
  // Affinity over the raw query characters: the shard's encode of the
  // same string always produces the same bytes, so raw-char affinity
  // groups repeats exactly like encoded-view affinity does.
  const stage::seq_view raw(reinterpret_cast<const char_t*>(q.data()),
                           static_cast<index_t>(q.size()));
  return shards_[pick_shard(raw)]->submit_strings(q, s, opt, so);
}

void service_group::shutdown(bool drain) {
  for (auto& sh : shards_) sh->shutdown(drain);
}

service_stats service_group::stats() const {
  service_stats out;

  // Sum counters shard-wise; percentile fields of the per-shard
  // snapshots are ignored on purpose — they are re-ranked below from
  // the merged histograms.
  for (const auto& sh : shards_) {
    const service_stats s = sh->stats();
    out.accepted += s.accepted;
    out.rejected += s.rejected;
    out.shed += s.shed;
    out.quota_rejected += s.quota_rejected;
    out.completed += s.completed;
    out.failed += s.failed;
    out.batches += s.batches;
    out.inline_batches += s.inline_batches;
    out.batched_requests += s.batched_requests;
    out.batch_simd_pairs += s.batch_simd_pairs;
    out.batch_scalar_pairs += s.batch_scalar_pairs;
    out.batch_ragged_pairs += s.batch_ragged_pairs;
    out.batch_striped_pairs += s.batch_striped_pairs;
    out.batch_padded_cells += s.batch_padded_cells;
    out.batch_banded_pairs += s.batch_banded_pairs;
    out.batch_band_passes += s.batch_band_passes;
    out.cache_hits += s.cache_hits;
    out.cache_misses += s.cache_misses;
    out.deadline_expired += s.deadline_expired;
    out.quarantined += s.quarantined;
    out.queue_depth += s.queue_depth;
    out.in_flight_batches += s.in_flight_batches;
    out.outstanding_tickets += s.outstanding_tickets;
    out.effective_linger_us =
        std::max(out.effective_linger_us, s.effective_linger_us);
    // Histograms and execution tables merge exactly: bucket-wise /
    // cell-wise sums.
    out.exec.merge(s.exec);
    for (std::size_t c = 0; c < n_request_classes; ++c) {
      class_stats& dst = out.per_class[c];
      const class_stats& src = s.per_class[c];
      dst.accepted += src.accepted;
      dst.rejected += src.rejected;
      dst.shed += src.shed;
      dst.quota_rejected += src.quota_rejected;
      dst.completed += src.completed;
      dst.failed += src.failed;
      dst.cache_hits += src.cache_hits;
      dst.deadline_expired += src.deadline_expired;
      dst.quarantined += src.quarantined;
      dst.latency_hist.merge(src.latency_hist);
    }
  }
  out.mean_batch_occupancy =
      out.batches > 0 ? static_cast<double>(out.batched_requests) /
                            static_cast<double>(out.batches)
                      : 0.0;

  fill_latency_percentiles(out);

  // Cache hit/miss counters above are the shards' local views (summed);
  // evictions live only in the shared cache itself.
  if (cache_) out.cache_evictions = cache_->stats().evictions;
  return out;
}

std::size_t service_group::dump_metrics(char* buf, std::size_t cap) const {
  text_buffer out(buf, cap);
  render_prometheus(stats(), out);

  // Per-shard breakdown: the shard label survives the merge, so a
  // dashboard can still see one hot or browned-out shard inside the
  // group-wide series above.
  using u64 = unsigned long long;
  out.printf(
      "# HELP anyseq_shard_accepted_total Requests admitted, per shard.\n"
      "# TYPE anyseq_shard_accepted_total counter\n");
  std::vector<service_stats> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& sh : shards_) per_shard.push_back(sh->stats());
  for (std::size_t i = 0; i < per_shard.size(); ++i)
    out.printf("anyseq_shard_accepted_total{shard=\"%zu\"} %llu\n", i,
               static_cast<u64>(per_shard[i].accepted));
  out.printf(
      "# HELP anyseq_shard_completed_total Requests completed, per shard.\n"
      "# TYPE anyseq_shard_completed_total counter\n");
  for (std::size_t i = 0; i < per_shard.size(); ++i)
    out.printf("anyseq_shard_completed_total{shard=\"%zu\"} %llu\n", i,
               static_cast<u64>(per_shard[i].completed));
  out.printf(
      "# HELP anyseq_shard_queue_depth Admission depth, per shard.\n"
      "# TYPE anyseq_shard_queue_depth gauge\n");
  for (std::size_t i = 0; i < per_shard.size(); ++i)
    out.printf("anyseq_shard_queue_depth{shard=\"%zu\"} %llu\n", i,
               static_cast<u64>(per_shard[i].queue_depth));
  out.printf(
      "# HELP anyseq_shard_effective_linger_seconds Current linger, per "
      "shard.\n"
      "# TYPE anyseq_shard_effective_linger_seconds gauge\n");
  for (std::size_t i = 0; i < per_shard.size(); ++i)
    out.printf(
        "anyseq_shard_effective_linger_seconds{shard=\"%zu\"} %.6f\n", i,
        static_cast<double>(per_shard[i].effective_linger_us) * 1e-6);
  return out.needed();
}

}  // namespace anyseq::service
