#include "service/telemetry.hpp"

namespace anyseq::service {
namespace {

template <class Stats>
void fill_from(Stats& dst, const histogram_snapshot& h) noexcept {
  dst.p50_latency_ns = h.quantile_ns(50, 100);
  dst.p90_latency_ns = h.quantile_ns(90, 100);
  dst.p99_latency_ns = h.quantile_ns(99, 100);
  dst.p999_latency_ns = h.quantile_ns(999, 1000);
  dst.latency_samples = h.count;
}

}  // namespace

const char* to_string(request_class c) noexcept {
  switch (c) {
    case request_class::interactive: return "interactive";
    case request_class::bulk: return "bulk";
  }
  return "?";
}

void fill_latency_percentiles(service_stats& s) noexcept {
  histogram_snapshot all;
  for (class_stats& cs : s.per_class) {
    fill_from(cs, cs.latency_hist);
    all.merge(cs.latency_hist);
  }
  fill_from(s, all);
}

}  // namespace anyseq::service
