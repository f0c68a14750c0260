#pragma once
/// \file faultinject.hpp
/// Deterministic fault injection for the serving tier.
///
/// Robustness code that only runs when production breaks is robustness
/// code that has never run.  This header plants named *hook points* in
/// the service internals — places where an allocation can fail, an
/// engine can throw, a batch hand-off can fail, or the clock can skew
/// — and drives them from a seeded `schedule`, so a chaos test can make
/// every failure path fire on demand and replay the exact same failure
/// pattern from the same seed.
///
/// Design rules:
///
///   * **Branch-only when disarmed.**  A hook point compiles to one
///     relaxed atomic load and a predictable branch; with no schedule
///     armed it performs no allocation, takes no lock, and reads no
///     clock, so the service's zero-steady-state-allocation contract
///     holds with hooks compiled in (the default).  Building with
///     `-DANYSEQ_FAULT_HOOKS=0` removes even the branch: every hook
///     macro folds to a compile-time `false`.
///   * **Deterministic given the seed.**  Per-visit faults
///     (`alloc_failure`, `dispatch_failure`) fire on a pure function of
///     (seed, point, visit index): the i-th visit of a point always
///     makes the same decision.  Per-request faults
///     (`kernel_exception`) are keyed on the request *fingerprint*
///     instead — `poisoned(fp)` is a pure function of (seed, fp) — so a
///     poisoned request fails every time it executes regardless of how
///     batches happen to form, which is exactly what the bisection
///     retry and the quarantine need to behave deterministically.
///   * **Typed.**  Injected engine faults throw `injected_fault`
///     (derived from `anyseq::error`), so tests can tell an injected
///     failure from a real one while every production catch site treats
///     them identically.
///
/// Hook points:
///
///   * `alloc_failure`    — two visits.  (1) Executor, multi-request
///     spans only: the batch execution throws `std::bad_alloc` before
///     reaching the engine.  Transient: the bisection retry re-executes
///     the halves, so every request still completes (solo spans never
///     fire this hook — an isolated request always reaches the engine).
///     (2) `response_cache::insert`, after it copies the key and
///     before the result: the insert throws `std::bad_alloc`, leaves no
///     entry behind, and the completion delivers the result uncached.
///   * `kernel_exception` — executor, per request: a poisoned
///     fingerprint throws `injected_fault` whenever it reaches the
///     engine, batched or solo.  Drives bisection isolation and the
///     repeat-offender quarantine.
///   * `dispatch_failure` — batcher thread, at the hand-off of a
///     collected batch to the pool (batches that, with the shard's
///     backlog, exceed `aligner::inline_cell_bound` cells): throws
///     `std::bad_alloc` as a failed job-ring growth would, and the
///     batcher executes the batch itself.  Every request still
///     completes.
///   * `clock_skew`       — deadline arithmetic: `skewed_now` offsets
///     the observed time by a bounded, seeded amount, so deadline
///     shedding is exercised against a lying clock (requests may be
///     shed early or late; liveness and survivor byte-identity must
///     hold either way).
///   * `engine_hold`      — executor, before the engine, batched or
///     solo: while the schedule is held (`config::hold`) the executing
///     thread blocks until `release()`.  Lets a test keep a request
///     pending for as long as it needs, at any kernel speed.
///
/// Arming is process-global and test-only: `arm()` publishes a schedule
/// to every service in the process, `disarm()` retracts it.  Callers
/// must disarm before the schedule goes out of scope and must not arm
/// concurrently with service traffic they do not own.

#include <atomic>
#include <cstdint>

#include "core/errors.hpp"

namespace anyseq::service::fault {

/// A fault thrown by an armed schedule (never by production code).
class injected_fault : public error {
 public:
  explicit injected_fault(const std::string& what) : error(what) {}
};

/// Named hook points (see file comment for placement and semantics).
enum class point : std::uint8_t {
  alloc_failure,
  kernel_exception,
  dispatch_failure,
  clock_skew,
  engine_hold,
};
inline constexpr std::size_t n_fault_points = 5;

/// Seeded, deterministic fault schedule.  Thread-safe: hook points are
/// evaluated from producer, batcher, and pool threads concurrently.
class schedule {
 public:
  struct config {
    std::uint64_t seed = 1;
    /// Probability that one visit of `alloc_failure` fires (multi-item
    /// execution spans and cache inserts).
    double alloc_failure_rate = 0.0;
    /// Probability that a given request fingerprint is poisoned — a
    /// sticky, per-request property, not a per-visit roll.
    double poison_rate = 0.0;
    /// Probability that one batch hand-off to the pool fails.
    double dispatch_failure_rate = 0.0;
    /// Deadline clock skew is drawn uniformly from ±this bound (0 =
    /// honest clock).
    std::int64_t max_clock_skew_ns = 0;
    /// Hold every request at `engine_hold` until release().
    bool hold = false;
  };

  explicit schedule(const config& cfg) noexcept
      : cfg_(cfg), held_(cfg.hold) {}

  /// Per-visit decision for `alloc_failure` / `dispatch_failure`: visit
  /// indices are assigned in arrival order per point, and the decision
  /// is a pure function of (seed, point, index).
  [[nodiscard]] bool fire(point p) noexcept {
    const auto pi = static_cast<std::size_t>(p);
    const std::uint64_t visit =
        visits_[pi].fetch_add(1, std::memory_order_relaxed);
    const double rate =
        p == point::alloc_failure      ? cfg_.alloc_failure_rate
        : p == point::dispatch_failure ? cfg_.dispatch_failure_rate
                                       : 0.0;
    return roll(mix(cfg_.seed, pi + 1, visit), rate);
  }

  /// Sticky per-request decision for `kernel_exception`: pure in
  /// (seed, fingerprint), so a poisoned request fails on every
  /// execution attempt — batched, bisected, or solo.
  [[nodiscard]] bool poisoned(std::uint64_t fingerprint) const noexcept {
    return roll(mix(cfg_.seed, 97, fingerprint), cfg_.poison_rate);
  }

  /// Seeded clock skew for this visit of `clock_skew`, in
  /// [-max_clock_skew_ns, +max_clock_skew_ns].
  [[nodiscard]] std::int64_t skew_ns() noexcept {
    if (cfg_.max_clock_skew_ns == 0) return 0;
    const auto pi = static_cast<std::size_t>(point::clock_skew);
    const std::uint64_t visit =
        visits_[pi].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h = mix(cfg_.seed, pi + 1, visit);
    const auto span = static_cast<std::uint64_t>(cfg_.max_clock_skew_ns);
    return static_cast<std::int64_t>(h % (2 * span + 1)) -
           cfg_.max_clock_skew_ns;
  }

  /// One visit of `engine_hold`: blocks while the schedule is held.
  void await_release() noexcept {
    visits_[static_cast<std::size_t>(point::engine_hold)].fetch_add(
        1, std::memory_order_relaxed);
    held_.wait(true, std::memory_order_acquire);
  }

  /// Lets every held and future `engine_hold` visit through.
  void release() noexcept {
    held_.store(false, std::memory_order_release);
    held_.notify_all();
  }

  [[nodiscard]] const config& settings() const noexcept { return cfg_; }

  /// How many times per-visit point `p` has been visited so far (fire(),
  /// skew_ns() and await_release() count visits; poisoned() does not).
  [[nodiscard]] std::uint64_t visits(point p) const noexcept {
    return visits_[static_cast<std::size_t>(p)].load(
        std::memory_order_relaxed);
  }

 private:
  /// splitmix64-style avalanche over the (seed, stream, index) triple.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::uint64_t index) noexcept {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1) + index;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  [[nodiscard]] static bool roll(std::uint64_t h, double rate) noexcept {
    if (rate <= 0.0) return false;
    if (rate >= 1.0) return true;
    // Compare in 53-bit space: h's low bits vs. rate scaled to them.
    const auto bound =
        static_cast<std::uint64_t>(rate * 9007199254740992.0);  // 2^53
    return (h & ((1ull << 53) - 1)) < bound;
  }

  config cfg_;
  std::atomic<bool> held_;
  std::atomic<std::uint64_t> visits_[n_fault_points] = {};
};

namespace detail {
/// The armed schedule (nullptr = disarmed).  Release/acquire so a hook
/// evaluated after arm() sees a fully constructed schedule.
inline std::atomic<schedule*> g_schedule{nullptr};
}  // namespace detail

/// Publish `s` to every hook point in the process.  Test-only.
inline void arm(schedule& s) noexcept {
  detail::g_schedule.store(&s, std::memory_order_release);
}

/// Retract the armed schedule.  Must happen-before its destruction and
/// before any thread that could still evaluate hooks is left running
/// against a dangling pointer (in practice: disarm after shutting down
/// the services under test).
inline void disarm() noexcept {
  detail::g_schedule.store(nullptr, std::memory_order_release);
}

/// The armed schedule, or nullptr.  One atomic load — this is the
/// entire happy-path cost of a hook point.
[[nodiscard]] inline schedule* armed() noexcept {
  return detail::g_schedule.load(std::memory_order_acquire);
}

/// True when the armed schedule fires this visit of per-visit point `p`.
[[nodiscard]] inline bool fires(point p) noexcept {
  schedule* s = armed();
  return s != nullptr && s->fire(p);
}

/// Signed ns offset the armed schedule applies to deadline clock reads.
[[nodiscard]] inline std::int64_t clock_skew_ns() noexcept {
  schedule* s = armed();
  return s != nullptr ? s->skew_ns() : std::int64_t{0};
}

/// The `engine_hold` point: blocks while the armed schedule is held.
inline void engine_hold() noexcept {
  if (schedule* s = armed()) s->await_release();
}

}  // namespace anyseq::service::fault

/// Hook-point predicates.  With hooks compiled in (default) each is one
/// atomic load plus a branch when disarmed; with ANYSEQ_FAULT_HOOKS=0
/// they fold to constants and the fault paths become dead code.
#ifndef ANYSEQ_FAULT_HOOKS
#define ANYSEQ_FAULT_HOOKS 1
#endif

#if ANYSEQ_FAULT_HOOKS
#define ANYSEQ_FAULT_POINT(p) \
  (::anyseq::service::fault::fires(::anyseq::service::fault::point::p))
#define ANYSEQ_FAULT_CLOCK_SKEW_NS() \
  (::anyseq::service::fault::clock_skew_ns())
#define ANYSEQ_FAULT_HOLD() (::anyseq::service::fault::engine_hold())
#else
#define ANYSEQ_FAULT_POINT(p) (false)
#define ANYSEQ_FAULT_CLOCK_SKEW_NS() (std::int64_t{0})
#define ANYSEQ_FAULT_HOLD() ((void)0)
#endif
