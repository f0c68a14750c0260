#pragma once
/// \file metrics.hpp
/// Fixed-shape metric primitives for the serving tier: log-linear
/// latency histograms, per-route x per-variant execution accounting, and
/// the bounded text buffer the exporters render into.
///
/// Everything here obeys the service's zero-steady-state-allocation
/// contract: a `latency_histogram` is a fixed array of relaxed atomics
/// (record = two fetch_adds, no lock, no allocation), the execution
/// tables are fixed 2-D atomic arrays, and `text_buffer` writes into
/// caller-owned storage with the snprintf contract (reports bytes
/// *needed* even when the buffer is too small, always NUL-terminates
/// what fits).
///
/// The histogram is the service's only latency mechanism.  It counts
/// every completion, its percentiles carry a bounded relative error
/// (<= 1/32), and it merges by plain bucket-wise addition — across a
/// service's per-thread counter stripes (service.hpp) and across shards
/// alike, the property the Prometheus `_bucket{le=...}` series need.

#include <atomic>
#include <bit>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace anyseq::service {

/// Log-linear latency buckets (the HdrHistogram scheme): each octave
/// [2^e, 2^(e+1)) ns splits into 32 equal sub-buckets, so every value
/// below 32 ns has a bucket of its own and above that a bucket is at
/// most 1/32 of its lower bound wide.  Values clamp at 2^48 ns (~3.26
/// days) into the last bucket.
inline constexpr unsigned latency_sub_bits = 5;  ///< 32 sub-buckets/octave
/// Octaves up to the clamp; octave o ends at 2^(o+1) - 1 ns, which is
/// also the Prometheus `le` edge of its exposition bucket.
inline constexpr std::size_t n_latency_octaves = 48;
inline constexpr std::size_t n_latency_buckets =
    (n_latency_octaves - latency_sub_bits + 1) << latency_sub_bits;  // 1408

/// Point-in-time copy of a histogram, mergeable across shards.
struct histogram_snapshot {
  std::uint64_t buckets[n_latency_buckets] = {};
  std::uint64_t count = 0;  ///< sum of `buckets`
  std::uint64_t sum_ns = 0;

  /// Bucket-wise sum — the shard-merge operation.  Exact: merging loses
  /// nothing, so a merged quantile is the quantile of the union.
  void merge(const histogram_snapshot& other) noexcept {
    for (std::size_t i = 0; i < n_latency_buckets; ++i)
      buckets[i] += other.buckets[i];
    count += other.count;
    sum_ns += other.sum_ns;
  }

  /// Bucket-wise difference from an `earlier` snapshot of the same
  /// histogram: the completions recorded in between.
  void subtract(const histogram_snapshot& earlier) noexcept {
    for (std::size_t i = 0; i < n_latency_buckets; ++i)
      buckets[i] -= earlier.buckets[i];
    count -= earlier.count;
    sum_ns -= earlier.sum_ns;
  }

  /// Nearest-rank quantile num/den (exact rationals — 999/1000 for
  /// p99.9 — so no floating-point rounding can move a rank): the
  /// inclusive upper edge of the bucket holding the ceil(num/den *
  /// count)-th smallest latency (rank >= 1), 0 when empty.  One pass
  /// over the buckets; never allocates.
  [[nodiscard]] std::uint64_t quantile_ns(std::uint64_t num,
                                          std::uint64_t den) const noexcept;
};

/// Thread-safe fixed-bucket log-linear latency histogram.  `record` is
/// two relaxed fetch_adds; never allocates, never locks.
class latency_histogram {
 public:
  /// Index of the bucket holding a latency of `ns` nanoseconds.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
    constexpr std::uint64_t clamp = std::uint64_t{1} << n_latency_octaves;
    if (ns >= clamp) return n_latency_buckets - 1;
    if (ns < (std::uint64_t{2} << latency_sub_bits)) return ns;
    // ns >> shift keeps the leading 1 plus 5 sub-bucket bits: [32, 64).
    const auto shift = static_cast<unsigned>(std::bit_width(ns)) - 1 -
                       latency_sub_bits;
    return (std::size_t{shift} << latency_sub_bits) + (ns >> shift);
  }

  /// Inclusive lower bound of bucket i in ns.
  [[nodiscard]] static std::uint64_t bucket_lower_ns(std::size_t i) noexcept {
    if (i < (std::size_t{2} << latency_sub_bits)) return i;
    const std::size_t shift = (i >> latency_sub_bits) - 1;
    const std::size_t sub = i & ((std::size_t{1} << latency_sub_bits) - 1);
    return ((std::uint64_t{1} << latency_sub_bits) + sub) << shift;
  }

  /// Inclusive upper bound of bucket i in ns.  At the last sub-bucket of
  /// octave o this is 2^(o+1) - 1, the Prometheus `le` edge.
  [[nodiscard]] static std::uint64_t bucket_upper_ns(std::size_t i) noexcept {
    return i + 1 < n_latency_buckets
               ? bucket_lower_ns(i + 1) - 1
               : (std::uint64_t{1} << n_latency_octaves) - 1;
  }

  void record(std::uint64_t ns) noexcept {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// `count` is the bucket sum, so the `+Inf` bucket equals `_count`
  /// by construction even while other threads record.
  [[nodiscard]] histogram_snapshot snapshot() const noexcept {
    histogram_snapshot s;
    add_to(s);
    return s;
  }

  /// Add this histogram's buckets into `s` — a snapshot merged in place,
  /// with no snapshot of its own on the stack.
  void add_to(histogram_snapshot& s) const noexcept {
    for (std::size_t i = 0; i < n_latency_buckets; ++i) {
      const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
      s.buckets[i] += n;
      s.count += n;
    }
    s.sum_ns += sum_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[n_latency_buckets] = {};
  std::atomic<std::uint64_t> sum_ns_{0};
};

inline std::uint64_t histogram_snapshot::quantile_ns(
    std::uint64_t num, std::uint64_t den) const noexcept {
  if (count == 0) return 0;
  const std::uint64_t r = (num * count + den - 1) / den;
  const std::uint64_t rank = r > 0 ? r : 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n_latency_buckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return latency_histogram::bucket_upper_ns(i);
  }
  return latency_histogram::bucket_upper_ns(n_latency_buckets - 1);
}

/// Execution accounting axes.  Routes mirror `service::route`
/// (batch_score, batch_traceback, solo); variants are the engine names
/// stamped into `alignment_result::variant`, with one spill cell that
/// only an unknown name lands in (a result built outside the
/// dispatcher, or a future engine).
inline constexpr std::size_t n_exec_routes = 3;
inline constexpr std::size_t n_exec_variants = 4;

[[nodiscard]] const char* exec_route_name(std::size_t i) noexcept;
[[nodiscard]] const char* exec_variant_name(std::size_t i) noexcept;

/// Map an `alignment_result::variant` string to its table column
/// (scalar=0, avx2=1, avx512=2, anything else — including nullptr — 3).
[[nodiscard]] std::size_t exec_variant_index(const char* variant) noexcept;

/// One (route, variant) cell of the execution table.
struct exec_cell {
  std::uint64_t requests = 0;  ///< requests executed through this cell
  std::uint64_t cells = 0;     ///< DP cells relaxed (GCUPS numerator)
  std::uint64_t ns = 0;        ///< wall time inside the engine call
};

/// Point-in-time copy of the execution table, mergeable across shards.
struct exec_snapshot {
  exec_cell at[n_exec_routes][n_exec_variants] = {};

  void merge(const exec_snapshot& other) noexcept {
    for (std::size_t r = 0; r < n_exec_routes; ++r)
      for (std::size_t v = 0; v < n_exec_variants; ++v) {
        at[r][v].requests += other.at[r][v].requests;
        at[r][v].cells += other.at[r][v].cells;
        at[r][v].ns += other.at[r][v].ns;
      }
  }

  /// Aggregate throughput in giga-cell-updates per second across every
  /// cell that recorded engine time (0.0 when nothing executed).
  [[nodiscard]] double total_gcups() const noexcept {
    std::uint64_t cells = 0, ns = 0;
    for (std::size_t r = 0; r < n_exec_routes; ++r)
      for (std::size_t v = 0; v < n_exec_variants; ++v) {
        cells += at[r][v].cells;
        ns += at[r][v].ns;
      }
    return ns == 0 ? 0.0 : static_cast<double>(cells) /
                               static_cast<double>(ns);
  }
};

/// Bounded append-only text sink with the snprintf contract: writes as
/// much as fits into the caller-owned buffer (always NUL-terminated when
/// cap > 0) while `needed()` keeps counting the bytes a large-enough
/// buffer would have received.  Callers size with a null/0 dry run, then
/// render for real — exactly like snprintf.
class text_buffer {
 public:
  text_buffer(char* buf, std::size_t cap) noexcept
      : buf_(cap > 0 ? buf : nullptr), cap_(buf != nullptr ? cap : 0) {
    if (buf_ != nullptr) buf_[0] = '\0';
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void
  printf(const char* fmt, ...) noexcept {
    va_list ap;
    va_start(ap, fmt);
    char* dst = needed_ < cap_ ? buf_ + needed_ : nullptr;
    const std::size_t avail = needed_ < cap_ ? cap_ - needed_ : 0;
    const int n = std::vsnprintf(dst, avail, fmt, ap);
    va_end(ap);
    if (n > 0) needed_ += static_cast<std::size_t>(n);
  }

  /// Total bytes the full rendering requires, excluding the NUL.
  [[nodiscard]] std::size_t needed() const noexcept { return needed_; }

 private:
  char* buf_;
  std::size_t cap_;
  std::size_t needed_ = 0;
};

}  // namespace anyseq::service
