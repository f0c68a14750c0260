#pragma once
/// Shared benchmark harness: wall-clock timing, GCUPS computation, and
/// paper-shaped table printing with a `paper=` reference column so every
/// run is directly comparable to the published numbers.
///
/// All benches run standalone with safe defaults on a small machine and
/// accept:
///   --scale N    divide the paper's sequence lengths by N
///   --pairs N    number of read pairs (Fig. 5b)
///   --quick      quarter-size everything
///   --threads N  worker threads for the CPU backends
///   --repeats N  repetitions per measurement (medians are reported)
///   --out FILE   where to write the machine-readable BENCH_*.json
///
/// Every bench also emits a machine-readable JSON document (see
/// json_report below) so successive PRs have a perf trajectory to
/// compare against.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "core/types.hpp"
#include "simd/detect.hpp"

namespace anyseq::bench {

/// Backend of an engine variant by its lane count (1 / 16 / 32) —
/// single source for the benches' variant rows.
[[nodiscard]] inline backend backend_for_lanes(int lanes) {
  switch (lanes) {
    case 16: return backend::simd_avx2;
    case 32: return backend::simd_avx512;
    default: return backend::scalar;
  }
}

/// True if the host CPU can run the engine variant of this lane count.
[[nodiscard]] inline bool lanes_runnable_now(int lanes) {
  return simd::lanes_runnable(lanes, simd::detect());
}

/// align_options for the paper's benchmark scoring (+2 match, -1
/// mismatch) and a gap policy object — the single source for mapping the
/// benches' Gap types onto dispatcher options.  Per-bench extras (tile,
/// full_matrix_cells, ...) are set on the returned object.
template <class Gap>
[[nodiscard]] inline align_options paper_opts(const Gap& gap, backend exec,
                                              int threads, bool traceback) {
  align_options o;
  o.kind = align_kind::global;
  o.exec = exec;
  o.threads = threads;
  o.want_alignment = traceback;
  o.match = 2;
  o.mismatch = -1;
  o.gap_open = Gap::kind == gap_kind::affine ? gap.open() : 0;
  o.gap_extend = gap.extend();
  return o;
}

struct args {
  std::uint64_t scale = 512;
  std::size_t pairs = 8000;
  bool quick = false;
  int threads = 4;
  int repeats = 3;
  std::string out;  ///< --out override for the BENCH_*.json path

  static args parse(int argc, char** argv, std::uint64_t default_scale,
                    std::size_t default_pairs) {
    args a;
    a.scale = default_scale;
    a.pairs = default_pairs;
    for (int i = 1; i < argc; ++i) {
      auto want = [&](const char* flag) {
        return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
      };
      if (want("--scale")) {
        a.scale = std::strtoull(argv[++i], nullptr, 10);
      } else if (want("--pairs")) {
        a.pairs = std::strtoull(argv[++i], nullptr, 10);
      } else if (want("--threads")) {
        a.threads = std::atoi(argv[++i]);
      } else if (want("--repeats")) {
        a.repeats = std::atoi(argv[++i]);
      } else if (want("--out")) {
        a.out = argv[++i];
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        a.quick = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf(
            "flags: --scale N  --pairs N  --threads N  --repeats N  "
            "--out FILE  --quick\n");
        std::exit(0);
      }
    }
    if (a.quick) {
      a.scale *= 4;
      a.pairs = std::max<std::size_t>(256, a.pairs / 8);
    }
    return a;
  }
};

class stopwatch {
 public:
  stopwatch() : start_(clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Giga cell updates per second.
[[nodiscard]] inline double gcups(std::uint64_t cells, double seconds) {
  return seconds > 0.0 ? static_cast<double>(cells) / seconds / 1e9 : 0.0;
}

/// Median, min and max over one measurement's repetitions.
struct spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

/// The spread of `xs`, which it sorts (all zeros when empty).
[[nodiscard]] inline spread spread_of(std::vector<double>& xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  return {xs[xs.size() / 2], xs.front(), xs.back()};
}

/// Run fn() `repeats` times; the spread of its runtimes in seconds.
template <class Fn>
spread timed_spread(int repeats, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < std::max(1, repeats); ++r) {
    stopwatch sw;
    fn();
    times.push_back(sw.seconds());
  }
  return spread_of(times);
}

/// Run fn() `repeats` times, return the median runtime in seconds.
template <class Fn>
double median_seconds(int repeats, Fn&& fn) {
  return timed_spread(repeats, std::forward<Fn>(fn)).median;
}

/// Machine-readable benchmark record, written as BENCH_<bench>.json.
///
/// This single-core container is noisy (a concurrent build swings wall
/// times 2x), so medians are the only trustworthy number: every
/// measurement row carries the triple `median_ns` (median wall time of
/// one run), `iterations` (work items one run covers — alignments,
/// pairs, operations), and `repetitions` (how many runs the median was
/// taken over).  Derived metrics (GCUPS, requests/s, ...) ride along as
/// extra keys per row.
class json_report {
 public:
  /// `repetitions` is the bench's --repeats; it is stamped on every row.
  json_report(std::string bench, int repetitions)
      : bench_(std::move(bench)), repetitions_(std::max(1, repetitions)) {}

  [[nodiscard]] int repetitions() const noexcept { return repetitions_; }

  void set_meta(const std::string& key, const std::string& value) {
    meta_ += "  \"" + key + "\": \"" + value + "\",\n";
  }
  void set_meta(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    meta_ += "  \"" + key + "\": " + buf + ",\n";
  }
  void set_meta(const std::string& key, long long value) {
    meta_ += "  \"" + key + "\": " + std::to_string(value) + ",\n";
  }

  /// One measurement row.  `median_s` is the median wall time of one
  /// run in seconds (from median_seconds); `iterations` is how many
  /// work items one run covers.  `reps_override` replaces the report's
  /// repetition count for rows measured differently (e.g. a single
  /// verification pass).
  void add(const std::string& name, double median_s, std::uint64_t iterations,
           std::initializer_list<std::pair<const char*, double>> extra = {},
           int reps_override = 0) {
    add_row(name, median_s, nullptr, iterations, extra, reps_override);
  }

  /// A row that also records the repetitions' spread as `min_ns` and
  /// `max_ns` (`s` in seconds, e.g. from timed_spread).
  void add(const std::string& name, const spread& s, std::uint64_t iterations,
           std::initializer_list<std::pair<const char*, double>> extra = {}) {
    add_row(name, s.median, &s, iterations, extra, 0);
  }

  /// Write the document.  `path` empty -> "BENCH_<bench>.json".
  /// Prints the destination; returns false (with a message) on I/O
  /// failure.
  bool write(const std::string& path = "") const {
    const std::string dest =
        path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::FILE* f = std::fopen(dest.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", dest.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    std::fputs(meta_.c_str(), f);
    std::fputs("  \"runs\": [\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", dest.c_str());
    return true;
  }

 private:
  std::string bench_;
  int repetitions_;
  std::string meta_;
  std::vector<std::string> rows_;

  void add_row(const std::string& name, double median_s, const spread* s,
               std::uint64_t iterations,
               std::initializer_list<std::pair<const char*, double>> extra,
               int reps_override) {
    char buf[96];
    std::string row = "    {\"name\": \"" + name + "\"";
    std::snprintf(buf, sizeof buf, ", \"median_ns\": %.1f", median_s * 1e9);
    row += buf;
    if (s != nullptr) {
      std::snprintf(buf, sizeof buf, ", \"min_ns\": %.1f, \"max_ns\": %.1f",
                    s->min * 1e9, s->max * 1e9);
      row += buf;
    }
    row += ", \"iterations\": " + std::to_string(iterations);
    row += ", \"repetitions\": " +
           std::to_string(reps_override > 0 ? reps_override : repetitions_);
    for (const auto& [key, value] : extra) {
      std::snprintf(buf, sizeof buf, ", \"%s\": %.6g", key, value);
      row += buf;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }
};

/// One row of a paper-shaped results table.
struct row {
  std::string library;
  std::string variant;
  double measured_gcups;
  double paper_gcups;  ///< < 0 -> not reported in the paper
  std::string note;
};

inline void print_header(const char* title, const char* workload) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("workload: %s\n", workload);
  std::printf("----------------------------------------------------------------\n");
  std::printf("%-14s %-12s %12s %12s   %s\n", "library", "variant",
              "GCUPS", "paper", "note");
}

inline void print_row(const row& r) {
  if (r.paper_gcups >= 0)
    std::printf("%-14s %-12s %12.3f %12.1f   %s\n", r.library.c_str(),
                r.variant.c_str(), r.measured_gcups, r.paper_gcups,
                r.note.c_str());
  else
    std::printf("%-14s %-12s %12.3f %12s   %s\n", r.library.c_str(),
                r.variant.c_str(), r.measured_gcups, "-", r.note.c_str());
}

inline void print_footer() {
  std::printf("----------------------------------------------------------------\n");
  std::printf(
      "note: absolute GCUPS are not comparable to the paper's testbed\n"
      "(2x Xeon Gold 6130 / Titan V / ZCU104 vs this host); the *shape* —\n"
      "who wins, by what factor — is the reproduction target. See\n"
      "EXPERIMENTS.md for the per-figure discussion.\n");
}

}  // namespace anyseq::bench
