#pragma once
/// \file trace.hpp
/// Request-lifecycle tracing for the serving tier: per-thread
/// fixed-capacity ring buffers of typed span events, exportable as
/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Design rules (mirroring faultinject.hpp):
///
///   * **One relaxed load when disarmed.**  Every emission site guards
///     on a process-global atomic collector pointer; with no collector
///     armed a hook is one atomic load and a predictable branch — no
///     clock read, no allocation, no lock — so the service's
///     zero-steady-state-allocation contract holds with tracing
///     compiled in (the default).  Building with `-DANYSEQ_TRACING=0`
///     removes even the branch: the `ANYSEQ_TRACE_*` macros fold to
///     nothing (the collector class itself stays compiled so the
///     export surface keeps linking; it just never receives events).
///   * **Allocation-free to record.**  A collector pre-allocates all
///     ring memory at construction.  Recording writes one 32-byte POD
///     into a single-writer ring: the first event from a thread binds
///     that thread to a ring (one fetch_add on a round-robin cursor),
///     then every subsequent record is an indexed store plus a release
///     counter bump.  Rings wrap — the newest `events_per_thread`
///     events per thread survive; everything that could not get a ring
///     is counted in `dropped()`.
///   * **Dump at quiescence.**  `dump_chrome_json` reads the rings
///     without stopping writers (acquire on each ring's counter), so a
///     dump taken mid-traffic is a best-effort snapshot; a dump taken
///     after traffic drains (the intended use — see
///     examples/alignment_server.cpp) is exact.
///
/// Span taxonomy (see docs/OBSERVABILITY.md for the full map):
///
///   submit          — validate + admit, submit() entry to ticket return
///   cache_probe     — response-cache lookup inside submit()
///   ring_wait       — admission-ring residency (enqueue to batch pick)
///   batch_collect   — batcher pass that assembled one batch
///   workspace_wait  — batcher blocked on the in-flight batch limit
///   kernel_execute  — one execution span inside the pool (whole job)
///   exec_batch      — one engine `align_batch_into` call (per span)
///   exec_solo       — one engine `align_into` call (solo request)
///   complete        — completion: result move + ticket wake
///
/// Instants: linger_adapt, deadline_shed, shed, quarantine — point
/// happenings worth seeing on the timeline.
///
/// Arming is process-global and caller-owned: `arm()` publishes a
/// collector to every emission site in the process, `disarm()` retracts
/// it.  Disarm before the collector goes out of scope and before any
/// thread could still be emitting against a dangling pointer (in
/// practice: disarm after draining the services under observation).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anyseq::service::trace {

/// Duration events ("ph":"X" in the Chrome trace format).
enum class span : std::uint8_t {
  submit,
  cache_probe,
  ring_wait,
  batch_collect,
  workspace_wait,
  kernel_execute,
  exec_batch,
  exec_solo,
  complete,
};
inline constexpr std::size_t n_spans = 9;

/// Instant events ("ph":"i").
enum class instant : std::uint8_t {
  linger_adapt,
  deadline_shed,
  shed,
  quarantine,
};
inline constexpr std::size_t n_instants = 4;

/// Event id of request work done before the request holds a slot: the
/// cache probe and quarantine check of a score-only view submission,
/// and the submit span of a hit served as a value ticket.
inline constexpr std::uint32_t no_slot = 0xFFFFFFFFu;

[[nodiscard]] const char* to_string(span s) noexcept;
[[nodiscard]] const char* to_string(instant i) noexcept;

/// One recorded event.  32 bytes, trivially copyable — a ring slot is
/// overwritten wholesale, never constructed.
struct event {
  std::int64_t t_ns = 0;    ///< start time, steady-clock ns
  std::int64_t dur_ns = 0;  ///< span duration (0 for instants)
  std::int64_t arg = 0;     ///< kind-specific payload (batch size, ns, ...)
  std::uint32_t id = 0;     ///< correlator: slot index, batch seq, shard
  std::uint8_t kind = 0;    ///< span or instant enumerator
  std::uint8_t is_instant = 0;
};
static_assert(sizeof(event) == 32);

/// Owner of the per-thread rings.  Construction allocates everything;
/// recording allocates nothing.  Threads bind to rings lazily on first
/// record and keep their ring for the collector's lifetime (bindings are
/// generation-keyed, so a new collector re-binds every thread cleanly).
class collector {
 public:
  struct config {
    std::size_t events_per_thread = 8192;  ///< ring capacity (clamped >= 16)
    std::size_t max_threads = 32;          ///< rings available (clamped >= 1)
  };

  collector() : collector(config{}) {}
  explicit collector(const config& cfg);
  collector(const collector&) = delete;
  collector& operator=(const collector&) = delete;

  /// Record a completed span [t0_ns, t1_ns].  Allocation-free;
  /// lock-free (single-writer ring per thread).
  void record_span(span k, std::uint32_t id, std::int64_t t0_ns,
                   std::int64_t t1_ns, std::int64_t arg) noexcept;

  /// Record a point event at now.  Same cost contract as record_span.
  void record_instant(instant k, std::uint32_t id, std::int64_t t_ns,
                      std::int64_t arg) noexcept;

  /// Events currently retrievable (sum over rings, capped per ring).
  [[nodiscard]] std::uint64_t size() const noexcept;

  /// Events lost: ring wrap-overwrites plus records from threads that
  /// arrived after every ring was claimed.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Render the Chrome trace-event JSON document into `buf` with the
  /// snprintf contract: writes up to `cap - 1` bytes plus a NUL and
  /// returns the byte count the full document needs (excluding the
  /// NUL), so `dump_chrome_json(nullptr, 0)` sizes the buffer.
  /// Timestamps are microseconds relative to the collector's epoch;
  /// `tid` is the ring index, `pid` is 1.
  std::size_t dump_chrome_json(char* buf, std::size_t cap) const;

 private:
  struct ring {
    std::atomic<std::uint64_t> seen{0};  ///< events ever written
    std::vector<event> buf;              ///< capacity cfg_.events_per_thread
  };

  /// The calling thread's ring, binding it on first use (nullptr when
  /// every ring is claimed — the event is then counted as dropped).
  [[nodiscard]] ring* ring_for_thread() noexcept;

  config cfg_;
  std::vector<ring> rings_;
  std::atomic<std::size_t> next_ring_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::int64_t epoch_ns_;
  std::uint64_t generation_;  ///< key for the thread-local binding cache
};

namespace detail {
/// The armed collector (nullptr = disarmed).  Release/acquire so an
/// emission evaluated after arm() sees fully constructed rings.
inline std::atomic<collector*> g_collector{nullptr};
}  // namespace detail

/// Publish `c` to every emission site in the process.
inline void arm(collector& c) noexcept {
  detail::g_collector.store(&c, std::memory_order_release);
}

/// Retract the armed collector (see file comment for lifetime rules).
inline void disarm() noexcept {
  detail::g_collector.store(nullptr, std::memory_order_release);
}

/// The armed collector, or nullptr.  One atomic load — the entire
/// happy-path cost of an emission site.
[[nodiscard]] inline collector* armed() noexcept {
  return detail::g_collector.load(std::memory_order_acquire);
}

/// Current steady-clock time in ns (the trace time base).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Span-open helper: the current time when armed, 0 when disarmed — so
/// a disarmed span open costs one load and no clock read, and the
/// matching emit recognises the 0 and stays silent.
[[nodiscard]] inline std::int64_t now_if_armed() noexcept {
  return armed() != nullptr ? now_ns() : std::int64_t{0};
}

/// Close and record a span opened with `now_if_armed()`.  Safe across
/// an arm/disarm transition: t0 == 0 (opened disarmed) never records.
inline void emit(span k, std::uint32_t id, std::int64_t t0,
                 std::int64_t arg = 0) noexcept {
  collector* c = armed();
  if (c != nullptr && t0 != 0) c->record_span(k, id, t0, now_ns(), arg);
}

/// Record an instant at now.
inline void mark(instant k, std::uint32_t id, std::int64_t arg = 0) noexcept {
  collector* c = armed();
  if (c != nullptr) c->record_instant(k, id, now_ns(), arg);
}

}  // namespace anyseq::service::trace

/// Emission-site macros.  With tracing compiled in (default) a site is
/// one relaxed-ish atomic load plus a branch when disarmed; with
/// ANYSEQ_TRACING=0 the sites vanish (operands kept as void casts so
/// expressions with side effects still evaluate and variables stay
/// used).
#ifndef ANYSEQ_TRACING
#define ANYSEQ_TRACING 1
#endif

#if ANYSEQ_TRACING
#define ANYSEQ_TRACE_NOW() (::anyseq::service::trace::now_if_armed())
#define ANYSEQ_TRACE_EMIT(k, id, t0, arg)                                   \
  (::anyseq::service::trace::emit(::anyseq::service::trace::span::k,        \
                                  static_cast<std::uint32_t>(id), (t0),     \
                                  static_cast<std::int64_t>(arg)))
#define ANYSEQ_TRACE_MARK(k, id, arg)                                       \
  (::anyseq::service::trace::mark(::anyseq::service::trace::instant::k,     \
                                  static_cast<std::uint32_t>(id),           \
                                  static_cast<std::int64_t>(arg)))
#else
#define ANYSEQ_TRACE_NOW() (std::int64_t{0})
#define ANYSEQ_TRACE_EMIT(k, id, t0, arg) \
  ((void)(id), (void)(t0), (void)(arg))
#define ANYSEQ_TRACE_MARK(k, id, arg) ((void)(id), (void)(arg))
#endif
