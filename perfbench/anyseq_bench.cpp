/// anyseq_bench — the repository benchmark.
///
/// One workload per process, driven only through the library's public
/// entry points: `service::service_group::{submit,stats,shard}`,
/// `service::ticket::get`, `anyseq::aligner::{align_into,
/// align_batch_into,plan,reserve}` and `anyseq::align`.  The bench times
/// those calls from outside and reads the counters an operator scrapes
/// (`service_stats`, `exec_snapshot`, `batch_stats`).
///
///   reads_cold   closed loop, 2 clients x 128 outstanding, 150 bp read
///                pairs cycled from a pool far larger than the cache:
///                admission, the batcher and the batch score kernel.
///   reads_hot    closed loop, 2 clients x 1024 outstanding, 99% draws
///                from a cache-resident hot set: cache probe plus the
///                submit/complete path.
///   mixed_open   open loop, Poisson arrivals (2k/s interactive 150 bp,
///                8k/s bulk 135-165 bp, every 4th bulk with traceback),
///                2 shards: batch formation under a fixed offered load.
///   genome_long  no service: global affine score-only alignment of the
///                Table I pair 0 surrogate through a reused aligner
///                (tiled wavefront + thread pool), plus a Hirschberg
///                traceback check.
///
/// An untraced run reports the end-to-end metrics: set-up CPU seconds,
/// CPU microseconds per completed operation and peak RSS.  Wall-clock
/// rates and latencies are diagnostics, because hypervisor steal on a
/// shared host moves them by tens of percent (README.md).  `--traced`
/// reruns the workload with a lifecycle-trace collector armed for part of
/// the window and reports the per-layer metrics instead.
///
///   anyseq_bench --workload NAME --seed N [--seconds S] [--traced]
///                [--smoke] [--out FILE]
///
/// Prints one line per metric, writes the full record (host, attempted/
/// failed operations, metrics, diagnostics) to --out, and prints a one-
/// line JSON summary {"correct","attempted","failed","metrics"} last.
/// Exits non-zero when any operation failed or any output was wrong.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "bio/datasets.hpp"
#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "bio/rng.hpp"
#include "core/gap.hpp"
#include "service/router.hpp"
#include "service/trace.hpp"
#include "simd/detect.hpp"

namespace {

using namespace anyseq;
namespace svc = anyseq::service;
using steady = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::uint32_t clamp_u32(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, std::int64_t{UINT32_MAX}));
}

// ---------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an already sorted sample (0 when empty).
template <class T>
[[nodiscard]] double nearest_rank(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds (user + system) the process has used, over all threads.
/// The kernel leaves time the hypervisor stole from a virtual CPU out
/// of it, which is why the gated metrics are built on it (README.md).
[[nodiscard]] double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Wall and process-CPU seconds since construction.
struct stopwatch {
  std::int64_t t0 = now_ns();
  double c0 = cpu_seconds();
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(now_ns() - t0) / 1e9;
  }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - c0; }
};

/// What one measured phase cost, drain included: process CPU seconds,
/// wall seconds, and the peak RSS when its load threads ended.
struct phase_cost {
  double cpu_s = 0, wall_s = 0, rss_mb = 0;
  [[nodiscard]] static phase_cost since(const stopwatch& sw) {
    return {sw.cpu_s(), sw.wall_s(), peak_rss_mb()};
  }
};

// ---------------------------------------------------------------------
// Command line and run record
// ---------------------------------------------------------------------

struct cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  bool smoke = false;  ///< ~1% inputs, one set-up: a shape check only
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "anyseq_bench: %s\n"
               "usage: anyseq_bench --workload "
               "{reads_cold|reads_hot|mixed_open|genome_long} --seed N\n"
               "                    [--seconds S] [--traced] [--smoke] "
               "[--out FILE]\n",
               why);
  std::exit(2);
}

cli parse_cli(int argc, char** argv) {
  cli c;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing flag value");
      return argv[++i];
    };
    if (is("--workload")) {
      c.workload = value();
    } else if (is("--seed")) {
      c.seed = std::strtoull(value(), nullptr, 10);
    } else if (is("--seconds")) {
      c.seconds = std::strtod(value(), nullptr);
    } else if (is("--out")) {
      c.out = value();
    } else if (is("--traced")) {
      c.traced = true;
    } else if (is("--smoke")) {
      c.smoke = true;
    } else {
      usage("unknown argument");
    }
  }
  if (c.workload.empty()) usage("--workload is required");
  if (!(c.seconds > 0.0) || c.seconds > 600.0)
    usage("--seconds must be in (0, 600]");
  return c;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.  `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one.
struct record {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;     ///< submissions the service refused
  std::uint64_t errored = 0;     ///< tickets that delivered an error
  std::uint64_t mismatched = 0;  ///< results that failed verification
  std::uint64_t verified = 0;    ///< results compared with a reference
  bool trace_complete = true;    ///< traced run: no span was dropped
  std::string threads_note;
  int threads = 1;
  std::vector<metric> metrics;
  std::vector<metric> diagnostics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void diag(std::string name, double value, std::string unit) {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::uint64_t failed() const {
    return refused + errored + mismatched;
  }
  [[nodiscard]] bool correct() const {
    return failed() == 0 && trace_complete && attempted > 0;
  }
};

[[nodiscard]] std::string json_metrics(const std::vector<metric>& ms) {
  std::string s = "{";
  char buf[160];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(),
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

bool write_record(const cli& c, const record& r) {
  if (c.out.empty()) return true;
  std::FILE* f = std::fopen(c.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "anyseq_bench: cannot write %s\n", c.out.c_str());
    return false;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(
      f,
      "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %.17g,\n"
      "  \"traced\": %s,\n  \"smoke\": %s,\n"
      "  \"host\": {\"cores\": %u, \"cpu\": \"%s\", \"variant\": \"%s\", "
      "\"threads\": %d, \"threads_note\": \"%s\"},\n"
      "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n"
      "  \"failures\": {\"refused\": %llu, \"errored\": %llu, "
      "\"mismatched\": %llu, \"verified\": %llu},\n",
      c.workload.c_str(), static_cast<unsigned long long>(c.seed), c.seconds,
      c.traced ? "true" : "false", c.smoke ? "true" : "false", cores,
      simd::describe(simd::detect()).c_str(), backend_name(), r.threads,
      r.threads_note.c_str(), r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed()),
      static_cast<unsigned long long>(r.refused),
      static_cast<unsigned long long>(r.errored),
      static_cast<unsigned long long>(r.mismatched),
      static_cast<unsigned long long>(r.verified));
  std::fprintf(f, "  \"metrics\": %s,\n  \"diagnostics\": %s\n}\n",
               json_metrics(r.metrics).c_str(),
               json_metrics(r.diagnostics).c_str());
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Request options, verification
// ---------------------------------------------------------------------

/// The paper's scoring: +2/-1, affine gaps -2/-1, global, score-only, one
/// thread per request (parallelism comes from batching).
[[nodiscard]] align_options request_options() {
  align_options o;
  o.kind = align_kind::global;
  o.match = 2;
  o.mismatch = -1;
  o.gap_open = -2;
  o.gap_extend = -1;
  o.threads = 1;
  return o;
}

/// The reference route every result is checked against: the scalar
/// int32 engine on the same inputs.
[[nodiscard]] align_options reference_options() {
  align_options o = request_options();
  o.exec = backend::scalar;
  o.precision = score_precision::int32;
  return o;
}

/// One served result kept for verification after timing.
struct checked {
  stage::seq_view q, s;
  bool traceback = false;
  score_t score = 0;
  index_t q_end = 0, s_end = 0;
  std::string cigar;
};

[[nodiscard]] checked keep(stage::seq_view q, stage::seq_view s, bool tb,
                           const alignment_result& r) {
  return {q, s, tb, r.score, r.q_end, r.s_end, tb ? r.cigar : std::string()};
}

/// Compare kept results with the reference route (one reference per
/// distinct input); returns the number of mismatches.
std::uint64_t verify(const std::vector<checked>& xs) {
  using key = std::tuple<const char_t*, index_t, const char_t*, index_t, bool>;
  std::map<key, alignment_result> refs;
  std::uint64_t bad = 0;
  for (const checked& x : xs) {
    const key k{x.q.data(), x.q.size(), x.s.data(), x.s.size(), x.traceback};
    auto it = refs.find(k);
    if (it == refs.end()) {
      align_options o = reference_options();
      o.want_alignment = x.traceback;
      it = refs.emplace(k, align(x.q, x.s, o)).first;
    }
    const alignment_result& r = it->second;
    if (r.score != x.score || r.q_end != x.q_end || r.s_end != x.s_end ||
        (x.traceback && r.cigar != x.cigar))
      ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------
// Serving tier: configuration and load generators
// ---------------------------------------------------------------------

/// alignment_server's serving configuration.
[[nodiscard]] svc::service_group::config serving_config(std::size_t shards) {
  svc::service_group::config cfg;
  cfg.shards = shards;
  cfg.cache_capacity = 4096;
  cfg.shard.max_batch = 64;
  cfg.shard.max_linger = std::chrono::microseconds(300);
  cfg.shard.queue_capacity = 1024;
  return cfg;
}

constexpr std::size_t kWindows = 10;  ///< rate windows per measured phase
constexpr std::size_t kVerifyEvery = 64;
constexpr std::size_t kMaxVerify = 4096;  ///< kept results per thread

/// Uniform fixed-size sample of one latency stream (Vitter's algorithm
/// R).  Its memory is allocated and touched up front, so the bench's own
/// bookkeeping does not make peak RSS follow throughput.
struct reservoir {
  static constexpr std::size_t kCap = std::size_t{1} << 14;
  std::vector<std::uint32_t> v = std::vector<std::uint32_t>(kCap);
  std::size_t n = 0;  ///< filled entries of v
  std::uint64_t seen = 0;

  void add(std::uint32_t x, bio::xoshiro256& rng) {
    if (n < kCap) {
      v[n++] = x;
    } else if (const std::uint64_t j = rng.below(seen + 1); j < kCap) {
      v[j] = x;
    }
    ++seen;
  }
};

/// One reservoir entry standing for `weight` latencies of its stream.
struct weighted {
  std::uint32_t ns;
  double weight;
};

/// Nearest-rank percentile `p` of weighted samples (sorts them).
[[nodiscard]] double percentile(std::vector<weighted>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end(),
            [](const weighted& a, const weighted& b) { return a.ns < b.ns; });
  double total = 0;
  for (const weighted& x : xs) total += x.weight;
  double acc = 0;
  for (const weighted& x : xs) {
    acc += x.weight;
    if (acc >= p * total) return x.ns;
  }
  return xs.back().ns;
}

/// Per-thread accounting of one measured phase.  Completions are counted
/// into kWindows equal windows by the time `get()` returned; completions
/// after the phase deadline (the drain) are not counted.
struct phase_stats {
  std::vector<std::uint64_t> win_ops = std::vector<std::uint64_t>(kWindows);
  std::vector<std::uint64_t> win_cells = std::vector<std::uint64_t>(kWindows);
  /// This thread's latency sample of each window ...
  std::array<reservoir, kWindows> win_res;
  bio::xoshiro256 rng{0x5EED};
  /// ... and the merged, weighted samples of every thread.
  std::array<std::vector<weighted>, kWindows> win_lat;
  std::vector<checked> samples;  ///< every kVerifyEvery-th result
  std::uint64_t submitted = 0, refused = 0, errored = 0, retrieved = 0;
  std::int64_t submit_ns = 0;  ///< bench span: time inside submit()
  std::int64_t get_ns = 0;     ///< bench span: time blocked in get()
  std::vector<std::uint32_t> submit_span_ns;  ///< traced phases only
  double window_s = 0;  ///< length of one rate window
  phase_cost cost;  ///< set on the merged stats only

  phase_stats() { samples.reserve(kMaxVerify); }

  void merge(const phase_stats& o) {
    window_s = std::max(window_s, o.window_s);
    for (std::size_t w = 0; w < kWindows; ++w) {
      win_ops[w] += o.win_ops[w];
      win_cells[w] += o.win_cells[w];
      const reservoir& r = o.win_res[w];
      for (std::size_t k = 0; k < r.n; ++k)
        win_lat[w].push_back({r.v[k], static_cast<double>(r.seen) /
                                          static_cast<double>(r.n)});
      win_lat[w].insert(win_lat[w].end(), o.win_lat[w].begin(),
                        o.win_lat[w].end());
    }
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    submit_span_ns.insert(submit_span_ns.end(), o.submit_span_ns.begin(),
                          o.submit_span_ns.end());
    submitted += o.submitted;
    refused += o.refused;
    errored += o.errored;
    retrieved += o.retrieved;
    submit_ns += o.submit_ns;
    get_ns += o.get_ns;
  }
};

/// Phase clock: start, deadline, and the window a timestamp falls in.
struct phase_clock {
  std::int64_t t0 = 0, t_end = 0;
  explicit phase_clock(double seconds)
      : t0(now_ns()), t_end(t0 + static_cast<std::int64_t>(seconds * 1e9)) {}
  [[nodiscard]] double window_s() const {
    return static_cast<double>(t_end - t0) / 1e9 / kWindows;
  }
  /// Window index of `t`, or kWindows when outside the phase.
  [[nodiscard]] std::size_t window_of(std::int64_t t) const {
    if (t < t0 || t >= t_end) return kWindows;
    return static_cast<std::size_t>((t - t0) * static_cast<std::int64_t>(kWindows) /
                                    (t_end - t0));
  }
};

/// Account one retrieved ticket.
void retire(svc::ticket& t, std::int64_t t_due, stage::seq_view q,
            stage::seq_view s, bool tb, const phase_clock& pc,
            phase_stats& st) {
  const std::int64_t g0 = now_ns();
  try {
    const alignment_result r = t.get();
    const std::int64_t g1 = now_ns();
    st.get_ns += g1 - g0;
    const std::size_t w = pc.window_of(g1);
    if (w < kWindows) {
      ++st.win_ops[w];
      st.win_cells[w] += r.cells;
      st.win_res[w].add(clamp_u32(g1 - t_due), st.rng);
    }
    if (st.retrieved++ % kVerifyEvery == 0 && st.samples.size() < kMaxVerify)
      st.samples.push_back(keep(q, s, tb, r));
  } catch (const std::exception& e) {
    st.get_ns += now_ns() - g0;
    if (st.errored++ == 0)
      std::fprintf(stderr, "anyseq_bench: request failed: %s\n", e.what());
  }
}

/// Closed loop: each client keeps `window` tickets outstanding and
/// retrieves them FIFO, submitting a new request whenever the oldest
/// returns.  `pick(client, i)` names the i-th pair of a client.
template <class Pick>
phase_stats closed_loop(svc::service_group& g, int clients,
                        std::size_t window, double seconds,
                        std::uint64_t max_per_client, bool span_log,
                        Pick pick) {
  const align_options opt = request_options();
  std::vector<phase_stats> per(static_cast<std::size_t>(clients));
  const stopwatch sw;
  const phase_clock pc(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      struct inflight {
        svc::ticket t;
        std::int64_t t_submit;
        stage::seq_view q, s;
      };
      phase_stats& st = per[static_cast<std::size_t>(c)];
      std::vector<inflight> ring(window);
      std::size_t head = 0, count = 0;
      for (std::uint64_t i = 0; i < max_per_client; ++i) {
        if (now_ns() >= pc.t_end) break;
        if (count == window) {
          inflight& old = ring[head];
          retire(old.t, old.t_submit, old.q, old.s, false, pc, st);
          head = (head + 1) % window;
          --count;
        }
        const bio::read_pair& p = pick(c, i);
        inflight& slot = ring[(head + count) % window];
        slot.q = p.first.view();
        slot.s = p.second.view();
        const std::int64_t s0 = now_ns();
        try {
          slot.t = g.submit(slot.q, slot.s, opt);
        } catch (const std::exception& e) {
          if (st.refused++ == 0)
            std::fprintf(stderr, "anyseq_bench: submit refused: %s\n",
                         e.what());
          continue;
        }
        const std::int64_t s1 = now_ns();
        st.submit_ns += s1 - s0;
        if (span_log) st.submit_span_ns.push_back(clamp_u32(s1 - s0));
        slot.t_submit = s0;
        ++st.submitted;
        ++count;
      }
      for (; count > 0; --count, head = (head + 1) % window) {
        inflight& old = ring[head];
        retire(old.t, old.t_submit, old.q, old.s, false, pc, st);
      }
    });
  }
  for (auto& t : threads) t.join();
  phase_stats all;
  all.cost = phase_cost::since(sw);
  all.window_s = pc.window_s();
  for (const auto& st : per) all.merge(st);
  return all;
}

/// Warm a group: submit `n` requests from `pick(i)` one admission queue
/// (1024) at a time and wait for every one.  Deep rounds fill batches
/// and leave few points where set-up waits on a thread wake-up.
template <class Pick>
void warm(svc::service_group& g, std::size_t n, Pick pick) {
  constexpr std::size_t round = 1024;
  const align_options opt = request_options();
  std::vector<svc::ticket> ts;
  ts.reserve(round);
  for (std::size_t i = 0; i < n; ++i) {
    const bio::read_pair& p = pick(i);
    ts.push_back(g.submit(p.first.view(), p.second.view(), opt));
    if (ts.size() == round) {
      for (auto& t : ts) (void)t.get();
      ts.clear();
    }
  }
  for (auto& t : ts) (void)t.get();
}

/// Offered load of mixed_open, and its interactive share.
constexpr double kOfferedRate = 10000.0, kInteractiveShare = 0.2;

/// One arrival of the open-loop schedule.
struct arrival {
  std::int64_t at_ns;  ///< offset from the phase start
  svc::request_class cls;
  bool traceback;
  stage::seq_view q, s;
};

/// Poisson arrivals at 2k/s interactive (150 bp, score-only) plus 8k/s
/// bulk (each mate trimmed uniformly to 135-165 bp, every 4th bulk
/// request with traceback), cycling through `pool`.
std::vector<arrival> make_schedule(const std::vector<bio::read_pair>& pool,
                                   double seconds, bio::xoshiro256& rng,
                                   std::size_t& next_pair,
                                   std::uint64_t& bulk_seq) {
  std::vector<arrival> out;
  out.reserve(static_cast<std::size_t>(seconds * kOfferedRate * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kOfferedRate;
    if (t >= seconds) break;
    const bio::read_pair& p = pool[next_pair++ % pool.size()];
    arrival a{};
    a.at_ns = static_cast<std::int64_t>(t * 1e9);
    if (rng.uniform() < kInteractiveShare) {
      a.cls = svc::request_class::interactive;
      a.q = stage::seq_view(p.first.view().data(), 150);
      a.s = stage::seq_view(p.second.view().data(), 150);
    } else {
      a.cls = svc::request_class::bulk;
      a.traceback = bulk_seq++ % 4 == 3;
      a.q = stage::seq_view(p.first.view().data(),
                            135 + static_cast<index_t>(rng.below(31)));
      a.s = stage::seq_view(p.second.view().data(),
                            135 + static_cast<index_t>(rng.below(31)));
    }
    out.push_back(a);
  }
  return out;
}

struct open_loop_result {
  phase_stats all;
  phase_stats per_class[svc::n_request_classes];
  std::vector<std::uint32_t> late_ns;  ///< actual minus scheduled send
};

/// Open loop: one generator thread sends `sched` on time with
/// sleep_until; one collector thread per class retrieves FIFO.  Latency
/// runs from the scheduled send time to the return of get().
open_loop_result open_loop(svc::service_group& g,
                           const std::vector<arrival>& sched, double seconds,
                           bool span_log) {
  struct inflight {
    svc::ticket t;
    std::int64_t due;
    const arrival* a;
  };
  struct handoff {
    std::vector<inflight> items;
    std::size_t published = 0;
    bool done = false;
    std::mutex m;
    std::condition_variable cv;
  };
  handoff lanes[svc::n_request_classes];
  for (auto& l : lanes) l.items.resize(sched.size());

  open_loop_result res;
  res.late_ns.reserve(sched.size());
  const stopwatch sw;
  const phase_clock pc(seconds);
  std::vector<std::thread> collectors;
  for (std::size_t c = 0; c < svc::n_request_classes; ++c) {
    collectors.emplace_back([&, c] {
      handoff& l = lanes[c];
      phase_stats& st = res.per_class[c];
      for (std::size_t k = 0;; ++k) {
        {
          std::unique_lock lk(l.m);
          l.cv.wait(lk, [&] { return l.published > k || l.done; });
          if (k >= l.published) break;
        }
        inflight& x = l.items[k];
        retire(x.t, x.due, x.a->q, x.a->s, x.a->traceback, pc, st);
      }
    });
  }

  phase_stats gen;
  align_options score = request_options();
  align_options tb = score;
  tb.want_alignment = true;
  for (const arrival& a : sched) {
    const std::int64_t due = pc.t0 + a.at_ns;
    std::this_thread::sleep_until(steady::time_point(
        std::chrono::duration_cast<steady::duration>(
            std::chrono::nanoseconds(due))));
    const std::int64_t s0 = now_ns();
    res.late_ns.push_back(clamp_u32(s0 - due));
    svc::submit_options so;
    so.cls = a.cls;
    svc::ticket t;
    try {
      t = g.submit(a.q, a.s, a.traceback ? tb : score, so);
    } catch (const std::exception& e) {
      if (gen.refused++ == 0)
        std::fprintf(stderr, "anyseq_bench: submit refused: %s\n", e.what());
      continue;
    }
    const std::int64_t s1 = now_ns();
    gen.submit_ns += s1 - s0;
    if (span_log) gen.submit_span_ns.push_back(clamp_u32(s1 - s0));
    ++gen.submitted;
    handoff& l = lanes[static_cast<std::size_t>(a.cls)];
    std::lock_guard lk(l.m);
    l.items[l.published] = {std::move(t), due, &a};
    ++l.published;
    l.cv.notify_one();
  }
  for (auto& l : lanes) {
    std::lock_guard lk(l.m);
    l.done = true;
    l.cv.notify_one();
  }
  for (auto& t : collectors) t.join();
  res.all.cost = phase_cost::since(sw);
  res.all.window_s = pc.window_s();
  res.all.merge(gen);
  for (auto& st : res.per_class) {
    phase_stats merged;  // a view of the class's own samples
    merged.window_s = res.all.window_s;
    merged.merge(st);
    st = std::move(merged);
    res.all.merge(st);
  }
  return res;
}

// ---------------------------------------------------------------------
// Traced runs: span reduction
// ---------------------------------------------------------------------

/// One duration event of the dumped Chrome trace.
struct span_event {
  svc::trace::span kind;
  std::int64_t ts_ns, dur_ns;
  int tid;
  std::int64_t arg;
};

/// Parse the collector's Chrome trace-event dump (the exact format
/// trace.cpp renders); instant events are skipped.
std::vector<span_event> parse_spans(const std::string& doc) {
  std::vector<span_event> out;
  constexpr std::size_t n_spans = svc::trace::n_spans;
  const char* p = doc.c_str();
  while ((p = std::strstr(p, "{\"name\":\"")) != nullptr) {
    p += 9;
    const char* name_end = std::strchr(p, '"');
    if (name_end == nullptr) break;
    const std::string name(p, name_end);
    const char* end = std::strstr(name_end, "}}");
    if (end == nullptr) break;
    const std::string obj(name_end, end);
    p = end;
    if (obj.find("\"ph\":\"X\"") == std::string::npos) continue;
    std::size_t k = 0;
    while (k < n_spans &&
           name != svc::trace::to_string(static_cast<svc::trace::span>(k)))
      ++k;
    if (k == n_spans) continue;
    const auto field = [&](const char* key) {
      const std::size_t at = obj.find(key);
      return at == std::string::npos ? 0.0
                                     : std::strtod(obj.c_str() + at +
                                                       std::strlen(key),
                                                   nullptr);
    };
    out.push_back({static_cast<svc::trace::span>(k),
                   std::llround(field("\"ts\":") * 1e3),
                   std::llround(field("\"dur\":") * 1e3),
                   static_cast<int>(field("\"tid\":")),
                   static_cast<std::int64_t>(field("\"arg\":"))});
  }
  return out;
}

/// Stage time along the request path, summed over all requests of the
/// traced phase.  Batch-level work is charged to every member the way
/// each member experiences it: a member waits for every engine call and
/// every completion that precedes its own completion inside its
/// kernel_execute span.
struct stage_sums {
  double submit = 0, probe = 0, ring_wait = 0, collect = 0, ws_wait = 0;
  double kernel = 0, complete = 0;
  std::vector<std::uint32_t> probe_ns, complete_ns, ring_wait_ns,
      collect_ns, submit_ns;
};

stage_sums reduce_spans(std::vector<span_event> ev) {
  using svc::trace::span;
  stage_sums s;
  std::sort(ev.begin(), ev.end(), [](const span_event& a, const span_event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    // An enclosing kernel_execute sorts before children starting with it.
    return (a.kind == span::kernel_execute) > (b.kind == span::kernel_execute);
  });
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const span_event& e = ev[i];
    const auto d = static_cast<double>(e.dur_ns);
    switch (e.kind) {
      case span::submit:
        s.submit += d;
        s.submit_ns.push_back(clamp_u32(e.dur_ns));
        break;
      case span::cache_probe:
        s.probe += d;
        s.probe_ns.push_back(clamp_u32(e.dur_ns));
        break;
      case span::ring_wait:
        s.ring_wait += d;
        s.ring_wait_ns.push_back(clamp_u32(e.dur_ns));
        break;
      case span::batch_collect:
        s.collect += d;
        s.collect_ns.push_back(clamp_u32(e.dur_ns));
        break;
      case span::workspace_wait:
        s.ws_wait += d;
        break;
      case span::complete:
        s.complete_ns.push_back(clamp_u32(e.dur_ns));
        break;
      case span::kernel_execute: {
        const std::int64_t end = e.ts_ns + e.dur_ns;
        double engine = 0, completes = 0;
        for (std::size_t j = i + 1;
             j < ev.size() && ev[j].tid == e.tid && ev[j].ts_ns <= end; ++j) {
          if (ev[j].kind == span::exec_batch || ev[j].kind == span::exec_solo) {
            engine += static_cast<double>(ev[j].dur_ns);
          } else if (ev[j].kind == span::complete) {
            completes += static_cast<double>(ev[j].dur_ns);
            s.kernel += engine;
            s.complete += completes;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  for (auto* v : {&s.probe_ns, &s.complete_ns, &s.ring_wait_ns, &s.collect_ns,
                  &s.submit_ns})
    std::sort(v->begin(), v->end());
  return s;
}

/// Armed lifecycle-trace collector for one traced phase.  Rings hold
/// every event of the phase (the phase is sized so none wrap).
class trace_session {
 public:
  trace_session()
      : col_(svc::trace::collector::config{
            std::size_t{1} << 18,
            static_cast<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency())) +
                8}) {
    svc::trace::arm(col_);
  }
  ~trace_session() { svc::trace::disarm(); }
  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;

  /// Disarm and reduce what was recorded.
  stage_sums finish(std::uint64_t& dropped) {
    svc::trace::disarm();
    dropped = col_.dropped();
    std::string doc(col_.dump_chrome_json(nullptr, 0) + 1, '\0');
    col_.dump_chrome_json(doc.data(), doc.size());
    return reduce_spans(parse_spans(doc));
  }

 private:
  svc::trace::collector col_;
};

/// Mean threads=1 `align_batch_into` GCUPS on `pairs` in chunks of
/// `chunk` pairs (median of three passes after one warm-up pass).
double alone_gcups(const std::vector<seq_pair>& pairs, std::size_t chunk) {
  anyseq::aligner a(request_options());
  std::vector<alignment_result> out;
  chunk = std::max<std::size_t>(1, chunk);
  std::vector<double> rates;
  for (int pass = 0; pass < 4; ++pass) {
    std::uint64_t cells = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < pairs.size(); i += chunk) {
      const std::size_t n = std::min(chunk, pairs.size() - i);
      a.align_batch_into(std::span<const seq_pair>(pairs.data() + i, n), out);
      for (std::size_t k = 0; k < n; ++k) cells += out[k].cells;
    }
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    if (pass > 0) rates.push_back(static_cast<double>(cells) / s / 1e9);
  }
  return median(rates);
}

/// Engine cells and ns of one exec route, summed over variants.
[[nodiscard]] std::pair<double, double> route_totals(
    const svc::exec_snapshot& e, std::size_t route) {
  double cells = 0, ns = 0;
  for (std::size_t v = 0; v < svc::n_exec_variants; ++v) {
    cells += static_cast<double>(e.at[route][v].cells);
    ns += static_cast<double>(e.at[route][v].ns);
  }
  return {cells, ns};
}

[[nodiscard]] double hist_sum_ns(const svc::service_stats& s) {
  double sum = 0;
  for (const auto& c : s.per_class)
    sum += static_cast<double>(c.latency_hist.sum_ns);
  return sum;
}

/// Per-layer metrics of a serving workload from the traced phase's
/// spans and the counter deltas over the whole measured run.
void serving_layers(record& r, svc::service_group& g,
                    const svc::service_stats& before,
                    const svc::service_stats& traced_before,
                    const std::vector<std::uint64_t>& shard_before,
                    const phase_stats& traced, const stage_sums& sp,
                    std::uint64_t dropped, double wall_s, double overhead,
                    const std::vector<seq_pair>& alone_pairs) {
  const svc::service_stats after = g.stats();
  const double n = static_cast<double>(std::max<std::uint64_t>(1, traced.submitted));

  std::vector<double> accepted;
  for (std::size_t i = 0; i < g.shard_count(); ++i)
    accepted.push_back(
        static_cast<double>(g.shard(i).stats().accepted - shard_before[i]));
  double mean_acc = 0, max_acc = 0;
  for (double a : accepted) {
    mean_acc += a / static_cast<double>(accepted.size());
    max_acc = std::max(max_acc, a);
  }
  r.add("router.shard_skew", ratio(max_acc, mean_acc), "ratio");

  const double covered = sp.probe + sp.ring_wait + sp.kernel + sp.complete;
  const double latency_sum = hist_sum_ns(after) - hist_sum_ns(traced_before);
  r.add("budget.router_ns",
        std::max(0.0, static_cast<double>(traced.submit_ns) - sp.submit) / n,
        "ns/req");
  r.add("budget.submit_ns", std::max(0.0, sp.submit - sp.probe) / n, "ns/req");
  r.add("budget.cache_probe_ns", sp.probe / n, "ns/req");
  r.add("budget.ring_wait_ns", sp.ring_wait / n, "ns/req");
  r.add("budget.kernel_ns", sp.kernel / n, "ns/req");
  r.add("budget.complete_ns", sp.complete / n, "ns/req");
  r.add("budget.unattributed_frac",
        ratio(std::max(0.0, latency_sum - covered), latency_sum), "ratio");

  const auto d = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  r.add("batcher.occupancy",
        ratio(d(after.batched_requests, before.batched_requests),
              d(after.batches, before.batches)),
        "req/batch");
  r.add("batcher.collect_ns", std::max(0.0, sp.collect - sp.ws_wait) / n,
        "ns/req");
  r.add("batcher.workspace_wait_frac", ratio(sp.ws_wait, sp.collect), "ratio");

  const double lookups = d(after.cache_hits, before.cache_hits) +
                         d(after.cache_misses, before.cache_misses);
  r.add("cache.hit_frac", ratio(d(after.cache_hits, before.cache_hits), lookups),
        "ratio");
  r.add("cache.evictions_per_req",
        ratio(d(after.cache_evictions, before.cache_evictions), lookups),
        "ratio");

  const double simd = d(after.batch_simd_pairs, before.batch_simd_pairs);
  const double scalar = d(after.batch_scalar_pairs, before.batch_scalar_pairs);
  svc::exec_snapshot ex = after.exec;
  for (std::size_t rt = 0; rt < svc::n_exec_routes; ++rt)
    for (std::size_t v = 0; v < svc::n_exec_variants; ++v) {
      ex.at[rt][v].cells -= before.exec.at[rt][v].cells;
      ex.at[rt][v].ns -= before.exec.at[rt][v].ns;
      ex.at[rt][v].requests -= before.exec.at[rt][v].requests;
    }
  const auto [score_cells, score_ns] = route_totals(ex, 0);
  const auto [tb_cells, tb_ns] = route_totals(ex, 1);
  const double solo_ns = route_totals(ex, 2).second;
  r.add("kernel.simd_pair_frac", ratio(simd, simd + scalar), "ratio");
  r.add("kernel.ragged_pair_frac",
        ratio(d(after.batch_ragged_pairs, before.batch_ragged_pairs),
              simd + scalar),
        "ratio");
  r.add("kernel.padded_cell_frac",
        ratio(d(after.batch_padded_cells, before.batch_padded_cells),
              score_cells),
        "ratio");
  const double served = ratio(score_cells, score_ns);
  r.add("kernel.served_gcups", served, "GCUPS");
  r.add("kernel.tb_gcups", ratio(tb_cells, tb_ns), "GCUPS");
  r.add("kernel.busy_threads", (score_ns + tb_ns + solo_ns) / 1e9 / wall_s,
        "threads");
  const double occupancy = ratio(d(after.batched_requests, before.batched_requests),
                                 d(after.batches, before.batches));
  const double alone = alone_gcups(
      alone_pairs, static_cast<std::size_t>(std::llround(occupancy)));
  r.add("kernel.alone_gcups", alone, "GCUPS");
  r.add("kernel.alone_gcups_full", alone_gcups(alone_pairs, 64), "GCUPS");
  r.add("kernel.eff_vs_alone", ratio(served, alone), "ratio");

  r.add("plan.workspace_mb",
        static_cast<double>(
            anyseq::aligner(request_options()).plan(150, 150).workspace_bytes) /
            (1024.0 * 1024.0),
        "MB");
  r.add("trace.overhead_ratio", overhead, "ratio");
  r.add("trace.dropped", static_cast<double>(dropped), "count");
  r.trace_complete = dropped == 0;

  r.diag("traced_requests", n, "count");
  r.diag("submit_span_ns_p50", nearest_rank(sp.submit_ns, 0.5), "ns");
  r.diag("submit_span_ns_p99", nearest_rank(sp.submit_ns, 0.99), "ns");
  std::vector<std::uint32_t> bench_submit = traced.submit_span_ns;
  std::sort(bench_submit.begin(), bench_submit.end());
  r.diag("router_submit_ns_p50", nearest_rank(bench_submit, 0.5), "ns");
  r.diag("router_submit_ns_p99", nearest_rank(bench_submit, 0.99), "ns");
  r.diag("cache_probe_ns_p50", nearest_rank(sp.probe_ns, 0.5), "ns");
  r.diag("ring_wait_us_p50", nearest_rank(sp.ring_wait_ns, 0.5) / 1e3, "us");
  r.diag("ring_wait_us_p99", nearest_rank(sp.ring_wait_ns, 0.99) / 1e3, "us");
  r.diag("batch_collect_us_p50", nearest_rank(sp.collect_ns, 0.5) / 1e3, "us");
  r.diag("complete_ns_p50", nearest_rank(sp.complete_ns, 0.5), "ns");
  r.diag("client_get_ns_per_req", static_cast<double>(traced.get_ns) / n,
         "ns/req");
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct sizes {
  std::size_t pool;        ///< distinct cold pairs / fresh pairs
  std::size_t hot;         ///< reads_hot hot-set size
  std::size_t warm;        ///< cold warm-up requests per set-up
  int setups;              ///< set-ups per run (setup_s is their median)
  std::uint64_t genome_scale;
  std::uint64_t traced_cap;  ///< traced-phase requests per client
};

[[nodiscard]] sizes sizes_for(const cli& c) {
  if (c.smoke) return {2048, 256, 256, 1, 8192, 4096};
  return {131072, 2048, 4096, 7, 512, 60000};
}

[[nodiscard]] std::vector<bio::read_pair> simulate_pairs(std::size_t n,
                                                          index_t len,
                                                          std::uint64_t seed) {
  bio::genome_params gp;
  gp.length = 1 << 20;
  gp.seed = seed;
  const auto ref = bio::random_genome("chr_surrogate", gp);
  bio::read_sim_params rp;
  rp.read_length = len;
  rp.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  return bio::simulate_read_pairs(ref, n, rp);
}

/// CPU and wall seconds of each set-up of a run.  setup_s is the median
/// CPU time; the wall-clock median is a diagnostic.
struct setup_cost {
  std::vector<double> cpu, wall;
  void add(const stopwatch& sw) {
    cpu.push_back(sw.cpu_s());
    wall.push_back(sw.wall_s());
  }
  void report(record& r) const {
    r.add("setup_s", median(cpu), "s");
    r.diag("setup_wall_s", median(wall), "s");
  }
};

/// Construct + warm `setups` groups and keep the last.
template <class Warm>
std::unique_ptr<svc::service_group> set_up(std::size_t shards, int setups,
                                           Warm warm_fn, setup_cost& cost) {
  std::unique_ptr<svc::service_group> g;
  for (int k = 0; k < setups; ++k) {
    g.reset();  // the previous group's shutdown is not set-up work
    const stopwatch sw;
    g = std::make_unique<svc::service_group>(serving_config(shards));
    warm_fn(*g);
    cost.add(sw);
  }
  return g;
}

/// Median over the windows of each window's percentile `p`: a stall
/// confined to a few windows does not move it.
[[nodiscard]] double windowed(phase_stats& st, double p) {
  std::vector<double> per;
  for (auto& w : st.win_lat)
    if (!w.empty()) per.push_back(percentile(w, p));
  return median(per);
}

/// Latency diagnostics of a phase, names prefixed by `prefix`: p50/p90
/// as window medians, p99/p99.9 pooled, and the sample count.
void add_latency(record& r, phase_stats& st, const std::string& prefix) {
  r.diag(prefix + "p50_us", windowed(st, 0.5) / 1e3, "us");
  r.diag(prefix + "p90_us", windowed(st, 0.9) / 1e3, "us");
  std::vector<weighted> all;
  for (const auto& w : st.win_lat) all.insert(all.end(), w.begin(), w.end());
  r.diag(prefix + "p99_us", percentile(all, 0.99) / 1e3, "us");
  r.diag(prefix + "p999_us", percentile(all, 0.999) / 1e3, "us");
  double n = 0;
  for (const weighted& x : all) n += x.weight;
  r.diag(prefix + "latencies", n, "count");
}

/// The gated metrics of a measured phase that completed `ops`
/// operations: CPU per operation and peak RSS, plus the CPU-over-wall
/// ratio as a diagnostic.
void phase_e2e(record& r, const phase_cost& pc, std::uint64_t ops) {
  r.add("cpu_us_per_op",
        pc.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, ops)),
        "us");
  r.add("peak_rss_mb", pc.rss_mb, "MB");
  r.diag("busy_cores", ratio(pc.cpu_s, pc.wall_s), "cores");
}

/// End-to-end metrics of a serving phase.  Wall-clock rates (medians over
/// the rate windows) and latencies are diagnostics.
void serving_e2e(record& r, phase_stats& st, const setup_cost& setup) {
  setup.report(r);
  phase_e2e(r, st.cost, st.retrieved);
  std::vector<double> ops, cells;
  for (std::size_t w = 0; w < kWindows; ++w) {
    ops.push_back(static_cast<double>(st.win_ops[w]) / st.window_s);
    cells.push_back(static_cast<double>(st.win_cells[w]) / st.window_s);
  }
  r.diag("ops_per_s", median(ops), "1/s");
  r.diag("gcups", median(cells) / 1e9, "GCUPS");
  add_latency(r, st, "");
}

void account(record& r, const phase_stats& st) {
  r.attempted += st.submitted + st.refused;
  r.refused += st.refused;
  r.errored += st.errored;
}

/// reads_cold / reads_hot: the two closed-loop workloads.
record run_reads(const cli& c, bool hot) {
  const sizes z = sizes_for(c);
  record r;
  r.threads = 2;
  r.threads_note = "2 client threads; service pool sized to cores";
  const int clients = 2;
  const std::size_t window = hot ? 1024 : 128;
  // Cold: a pool far beyond the 4096-entry cache, each client cycling
  // its own half.  Hot: the hot set first, then fresh pairs.
  const std::size_t n_pairs = hot ? z.hot + z.pool / 4 : z.pool;
  const auto pairs = simulate_pairs(n_pairs, 150, c.seed);
  const std::size_t fresh = n_pairs - z.hot;

  std::vector<bio::xoshiro256> rngs;
  std::vector<std::uint64_t> fresh_next(clients, 0);
  for (int k = 0; k < clients; ++k)
    rngs.emplace_back(c.seed * 1000003ULL + static_cast<std::uint64_t>(k));
  const auto pick = [&](int cl, std::uint64_t i) -> const bio::read_pair& {
    const auto k = static_cast<std::size_t>(cl);
    if (!hot) {
      const std::size_t half = pairs.size() / clients;
      return pairs[k * half + static_cast<std::size_t>(i % half)];
    }
    bio::xoshiro256& rng = rngs[k];
    if (rng.below(100) == 0)
      return pairs[z.hot + (k + clients * fresh_next[k]++) % fresh];
    return pairs[rng.below(z.hot)];
  };
  const auto warm_fn = [&](svc::service_group& g) {
    if (hot)
      warm(g, z.hot, [&](std::size_t i) -> const bio::read_pair& {
        return pairs[i];
      });
    else
      warm(g, z.warm, [&](std::size_t i) -> const bio::read_pair& {
        return pairs[pairs.size() - 1 - i];
      });
  };

  setup_cost setup;
  auto g = set_up(1, c.traced ? 1 : z.setups, warm_fn, setup);
  const svc::service_stats before = g->stats();
  std::vector<std::uint64_t> shard_before{g->shard(0).stats().accepted};

  if (!c.traced) {
    phase_stats st = closed_loop(*g, clients, window, c.seconds, UINT64_MAX,
                                 false, pick);
    g->shutdown(true);
    serving_e2e(r, st, setup);
    account(r, st);
    r.mismatched = verify(st.samples);
    r.verified = st.samples.size();
    return r;
  }

  // Traced: half the window untraced, then a traced phase capped so no
  // trace ring wraps; the ratio of their rates is the tracing overhead.
  const std::int64_t w0 = now_ns();
  phase_stats a = closed_loop(*g, clients, window, c.seconds / 2, UINT64_MAX,
                              false, pick);
  const std::int64_t a_ns = now_ns() - w0;
  const svc::service_stats traced_before = g->stats();
  std::uint64_t dropped = 0;
  phase_stats b;
  stage_sums sp;
  std::int64_t b_ns = 0;
  {
    trace_session ts;
    const std::int64_t b0 = now_ns();
    b = closed_loop(*g, clients, window, c.seconds / 2, z.traced_cap, true,
                    pick);
    b_ns = now_ns() - b0;
    g->shutdown(true);  // every span is emitted before shutdown returns
    sp = ts.finish(dropped);
  }
  const double wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  const double overhead =
      ratio(static_cast<double>(b.retrieved) / static_cast<double>(b_ns),
            static_cast<double>(a.retrieved) / static_cast<double>(a_ns));
  std::vector<seq_pair> alone;
  for (std::size_t i = 0; i < std::min<std::size_t>(2048, pairs.size()); ++i)
    alone.push_back({pairs[i].first.view(), pairs[i].second.view()});
  serving_layers(r, *g, before, traced_before, shard_before, b, sp, dropped,
                 wall_s, overhead, alone);
  account(r, a);
  account(r, b);
  a.samples.insert(a.samples.end(), b.samples.begin(), b.samples.end());
  r.mismatched = verify(a.samples);
  r.verified = a.samples.size();
  return r;
}

/// mixed_open: open-loop two-class traffic over two shards.
record run_mixed(const cli& c) {
  const sizes z = sizes_for(c);
  record r;
  r.threads = 3;
  r.threads_note = "1 generator + 2 collector threads; pool sized to cores";
  const auto pairs = simulate_pairs(z.pool / 2, 165, c.seed);
  const auto warm_fn = [&](svc::service_group& g) {
    warm(g, z.warm, [&](std::size_t i) -> const bio::read_pair& {
      return pairs[pairs.size() - 1 - i];
    });
  };
  setup_cost setup;
  auto g = set_up(2, c.traced ? 1 : z.setups, warm_fn, setup);
  const svc::service_stats before = g->stats();
  std::vector<std::uint64_t> shard_before;
  for (std::size_t i = 0; i < g->shard_count(); ++i)
    shard_before.push_back(g->shard(i).stats().accepted);

  bio::xoshiro256 rng(c.seed * 0x2545F4914F6CDD1DULL + 7);
  std::size_t next_pair = 0;
  std::uint64_t bulk_seq = 0;
  const auto lateness = [&](std::vector<std::uint32_t>& late) {
    std::sort(late.begin(), late.end());
    r.diag("loadgen_late_p50_us", nearest_rank(late, 0.5) / 1e3, "us");
    r.diag("loadgen_late_p99_us", nearest_rank(late, 0.99) / 1e3, "us");
    if (nearest_rank(late, 0.99) > 1e6)
      std::fprintf(stderr,
                   "anyseq_bench: warning: generator p99 lateness above "
                   "1000 us; latencies are not at the offered load\n");
  };

  if (!c.traced) {
    const auto sched = make_schedule(pairs, c.seconds, rng, next_pair, bulk_seq);
    open_loop_result o = open_loop(*g, sched, c.seconds, false);
    g->shutdown(true);
    serving_e2e(r, o.all, setup);
    add_latency(r, o.per_class[0], "interactive_");
    add_latency(r, o.per_class[1], "bulk_");
    lateness(o.late_ns);
    account(r, o.all);
    r.mismatched = verify(o.all.samples);
    r.verified = o.all.samples.size();
    return r;
  }

  const std::int64_t w0 = now_ns();
  const auto sched_a =
      make_schedule(pairs, c.seconds / 2, rng, next_pair, bulk_seq);
  open_loop_result a = open_loop(*g, sched_a, c.seconds / 2, false);
  const svc::service_stats traced_before = g->stats();
  // The traced phase is capped like the closed loop's, so the
  // generator's trace ring cannot wrap.
  const double traced_s = std::min(
      c.seconds / 2, static_cast<double>(z.traced_cap) / kOfferedRate);
  const auto sched_b = make_schedule(pairs, traced_s, rng, next_pair, bulk_seq);
  std::uint64_t dropped = 0;
  open_loop_result b;
  stage_sums sp;
  {
    trace_session ts;
    b = open_loop(*g, sched_b, traced_s, true);
    g->shutdown(true);  // every span is emitted before shutdown returns
    sp = ts.finish(dropped);
  }
  const double wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  // Open loop: the offered rate is fixed, so tracing overhead shows as
  // latency — untraced p50 over traced p50.
  const double overhead =
      ratio(windowed(a.all, 0.5), windowed(b.all, 0.5));
  std::vector<seq_pair> alone;
  for (const arrival& x : sched_a) {
    if (x.traceback) continue;
    alone.push_back({x.q, x.s});
    if (alone.size() == 2048) break;
  }
  serving_layers(r, *g, before, traced_before, shard_before, b.all, sp,
                 dropped, wall_s, overhead, alone);
  lateness(b.late_ns);
  account(r, a.all);
  account(r, b.all);
  a.all.samples.insert(a.all.samples.end(), b.all.samples.begin(),
                       b.all.samples.end());
  r.mismatched = verify(a.all.samples);
  r.verified = a.all.samples.size();
  return r;
}

/// genome_long: long-genome score-only alignment through a reused
/// aligner, no service.
record run_genome(const cli& c) {
  const sizes z = sizes_for(c);
  record r;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(4u, cores));
  r.threads = threads;
  r.threads_note = "min(4, cores) wavefront threads; no load generator";
  const auto pr = bio::make_pair(0, z.genome_scale, c.seed);
  const stage::seq_view a = pr.a.view(), b = pr.b.view();
  align_options opt = request_options();
  opt.threads = threads;

  setup_cost setup;
  std::unique_ptr<anyseq::aligner> al;
  alignment_result res;
  const auto set_up_aligner = [&] {
    al.reset();
    const stopwatch sw;
    al = std::make_unique<anyseq::aligner>(opt);
    al->reserve(a.size(), b.size());
    // A full-size warm-up touches the whole workspace before timing.
    al->align_into(a, b, res);
    setup.add(sw);
  };

  // One measured phase: repeated alignments of the whole pair; every
  // repetition must reproduce the first score.
  score_t first_score = 0;
  bool have_score = false;
  struct call {
    std::int64_t t_end, dur;
  };
  const auto phase = [&](double seconds, std::vector<call>& calls) {
    const phase_clock pc(seconds);
    do {
      const std::int64_t t0 = now_ns();
      al->align_into(a, b, res);
      const std::int64_t t1 = now_ns();
      calls.push_back({t1, t1 - t0});
      ++r.attempted;
      if (!have_score) {
        first_score = res.score;
        have_score = true;
      } else if (res.score != first_score) {
        ++r.mismatched;
      }
    } while (now_ns() < pc.t_end);
    return pc;
  };
  // Calls per second: the median over the rate windows of each window's
  // calls divided by their summed duration (a call counts in the window
  // it ends in).
  const auto call_rate = [](const phase_clock& pc,
                            const std::vector<call>& calls) {
    std::array<double, kWindows> n{}, busy{};
    for (const call& k : calls) {
      const std::size_t w = pc.window_of(k.t_end);
      if (w == kWindows) continue;
      n[w] += 1;
      busy[w] += static_cast<double>(k.dur);
    }
    std::vector<double> rates;
    for (std::size_t w = 0; w < kWindows; ++w)
      if (n[w] > 0) rates.push_back(n[w] * 1e9 / busy[w]);
    return median(rates);
  };
  const auto durations = [](const std::vector<call>& calls) {
    std::vector<std::uint32_t> d;
    for (const call& k : calls) d.push_back(clamp_u32(k.dur));
    std::sort(d.begin(), d.end());
    return d;
  };
  const double cells = static_cast<double>(a.size()) * static_cast<double>(b.size());

  // Reference: the scalar int32 engine, one thread, same pair.
  const auto check_reference = [&](stage::seq_view q, stage::seq_view s,
                                   score_t got) {
    ++r.verified;
    if (align(q, s, reference_options()).score != got)
      ++r.mismatched;
  };
  // Hirschberg traceback of the pair at a smaller `scale`: its GCUPS,
  // after rescoring the gapped strings and matching the scalar
  // score-only pass.
  const auto traceback_gcups = [&](std::uint64_t scale) {
    const auto tp = bio::make_pair(0, scale, c.seed);
    align_options to = opt;
    to.want_alignment = true;
    anyseq::aligner ta(to);
    alignment_result tr;
    const std::int64_t t0 = now_ns();
    ta.align_into(tp.a.view(), tp.b.view(), tr);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    ++r.attempted;
    const score_t re = rescore_alignment(
        tr.q_aligned, tr.s_aligned,
        [](char x, char y) { return x == y ? 2 : -1; }, affine_gap{-2, -1});
    if (re != tr.score) ++r.mismatched;
    check_reference(tp.a.view(), tp.b.view(), tr.score);
    return static_cast<double>(tp.a.size()) * static_cast<double>(tp.b.size()) /
           s / 1e9;
  };

  if (!c.traced) {
    // The run is `setups` segments, each on a freshly set-up aligner, so
    // the set-ups sample the host's load across the whole run.  A set-up
    // runs on about one core, whose speed other tenants change from one
    // second to the next.
    std::vector<call> calls;
    std::vector<double> rates;  // calls per busy second of each segment
    phase_cost cost;
    for (int k = 0; k < z.setups; ++k) {
      set_up_aligner();
      const std::size_t first = calls.size();
      const stopwatch sw;
      phase(c.seconds / z.setups, calls);
      cost.cpu_s += sw.cpu_s();
      cost.wall_s += sw.wall_s();
      double busy = 0;
      for (std::size_t i = first; i < calls.size(); ++i)
        busy += static_cast<double>(calls[i].dur);
      rates.push_back(static_cast<double>(calls.size() - first) * 1e9 / busy);
    }
    cost.rss_mb = peak_rss_mb();
    setup.report(r);
    phase_e2e(r, cost, calls.size());
    const double rate = median(rates);
    const auto lat = durations(calls);
    r.diag("ops_per_s", rate, "1/s");
    r.diag("gcups", rate * cells / 1e9, "GCUPS");
    r.diag("p50_us", nearest_rank(lat, 0.5) / 1e3, "us");
    r.diag("p90_us", nearest_rank(lat, 0.9) / 1e3, "us");
    r.diag("calls", static_cast<double>(lat.size()), "count");
    r.diag("q_len", static_cast<double>(a.size()), "bp");
    r.diag("s_len", static_cast<double>(b.size()), "bp");
    check_reference(a, b, first_score);
    r.diag("check_tb_gcups", traceback_gcups(z.genome_scale * 4), "GCUPS");
    return r;
  }

  set_up_aligner();
  std::vector<call> calls_a, calls_b;
  const double rate_a = call_rate(phase(c.seconds / 2, calls_a), calls_a);
  std::uint64_t dropped = 0;
  double rate_b = 0;
  {
    trace_session ts;
    rate_b = call_rate(phase(c.seconds / 2, calls_b), calls_b);
    (void)ts.finish(dropped);  // the aligner records no lifecycle spans
  }
  double busy_b = 0;
  for (const call& k : calls_b) busy_b += static_cast<double>(k.dur);
  const double served = rate_b * cells / 1e9;

  // The same pair at one thread: the kernel alone.
  align_options o1 = opt;
  o1.threads = 1;
  anyseq::aligner one(o1);
  alignment_result r1;
  const std::int64_t t1 = now_ns();
  one.align_into(a, b, r1);
  const double alone = cells / static_cast<double>(now_ns() - t1);
  ++r.attempted;
  if (r1.score != first_score) ++r.mismatched;

  r.add("router.shard_skew", 0.0, "ratio");
  r.add("budget.router_ns", 0.0, "ns/req");
  r.add("budget.submit_ns", 0.0, "ns/req");
  r.add("budget.cache_probe_ns", 0.0, "ns/req");
  r.add("budget.ring_wait_ns", 0.0, "ns/req");
  r.add("budget.kernel_ns", busy_b / static_cast<double>(calls_b.size()),
        "ns/req");
  r.add("budget.complete_ns", 0.0, "ns/req");
  r.add("budget.unattributed_frac", 0.0, "ratio");
  r.add("batcher.occupancy", 0.0, "req/batch");
  r.add("batcher.collect_ns", 0.0, "ns/req");
  r.add("batcher.workspace_wait_frac", 0.0, "ratio");
  r.add("cache.hit_frac", 0.0, "ratio");
  r.add("cache.evictions_per_req", 0.0, "ratio");
  r.add("kernel.simd_pair_frac", 0.0, "ratio");
  r.add("kernel.ragged_pair_frac", 0.0, "ratio");
  r.add("kernel.padded_cell_frac", 0.0, "ratio");
  r.add("kernel.served_gcups", served, "GCUPS");
  r.add("kernel.tb_gcups", traceback_gcups(z.genome_scale * 2), "GCUPS");
  r.add("kernel.busy_threads", ratio(served, alone), "threads");
  r.add("kernel.alone_gcups", alone, "GCUPS");
  r.add("kernel.alone_gcups_full", alone, "GCUPS");
  r.add("kernel.eff_vs_alone", ratio(served, threads * alone), "ratio");
  r.add("plan.workspace_mb",
        static_cast<double>(al->plan(a.size(), b.size()).workspace_bytes) /
            (1024.0 * 1024.0),
        "MB");
  r.add("trace.overhead_ratio", ratio(rate_b, rate_a), "ratio");
  r.add("trace.dropped", static_cast<double>(dropped), "count");
  r.trace_complete = dropped == 0;
  check_reference(a, b, first_score);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const cli c = parse_cli(argc, argv);
  record r;
  try {
    if (c.workload == "reads_cold") {
      r = run_reads(c, false);
    } else if (c.workload == "reads_hot") {
      r = run_reads(c, true);
    } else if (c.workload == "mixed_open") {
      r = run_mixed(c);
    } else if (c.workload == "genome_long") {
      r = run_genome(c);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anyseq_bench: %s failed: %s\n", c.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("workload %s seed %llu%s: %llu attempted, %llu failed "
              "(%llu refused, %llu errored, %llu of %llu verified "
              "mismatched)\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.traced ? " traced" : "",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.errored),
              static_cast<unsigned long long>(r.mismatched),
              static_cast<unsigned long long>(r.verified));
  for (const metric& m : r.metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const metric& m : r.diagnostics)
    std::printf("  (%s) %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool wrote = write_record(c, r);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed()),
              json_metrics(r.metrics).c_str());
  return r.correct() && wrote ? 0 : 1;
}
