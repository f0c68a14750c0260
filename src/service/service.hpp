#pragma once
/// \file service.hpp
/// Asynchronous request-batching front-end over the AnySeq dispatcher.
///
/// A server handling millions of independent alignment requests cannot
/// profit from `align_batch` unless something coalesces its traffic.
/// `service::aligner` is that layer: callers `submit()` one pair at a
/// time and get a future-like `ticket` back; a batcher thread coalesces
/// compatible requests (flushing on max batch size, max linger time, or
/// an option-compatibility boundary), orders them so SIMD lanes stay
/// full, and executes each batch through the public `align`/`align_batch`
/// dispatcher — a small batch with a short backlog (together at most
/// `inline_cell_bound` cells) on the batcher thread itself, any other on
/// `parallel::thread_pool::global()`, so a loaded shard runs batches side
/// by side.  Every result is byte-identical to what a synchronous
/// `anyseq::align` call on the same inputs would return: `align_batch`
/// runs each pair on the route `align` picks for it (service/batcher.hpp).
///
/// Threads: `threads > 1` fans a batch or wavefront out on the global
/// pool from the batcher, and runs it inline on a pool worker (DESIGN.md
/// §6): no thread beyond the batchers and the pool, and a lone large
/// request on a pool worker gets one core.
///
/// Wake-ups: a submit wakes a lingering batcher only when its arrival
/// changes what the batcher would do — the batch can fill, the ring hit
/// `queue_capacity`, the arrival cannot batch with the lead, it is
/// interactive behind a bulk lead, or it carries a deadline.  Other
/// compatible arrivals wait in the ring, where the batcher's walk at the
/// end of the linger takes them (DESIGN.md §12, "When the batcher
/// wakes").
///
/// On top of the batching core sits the serving tier:
///
///   * **Response cache** (service/cache.hpp).  With `cache_capacity > 0`
///     (or a router-shared cache), `submit()` first probes the cache; a
///     hit completes immediately — it never enters the admission ring,
///     never wakes the batcher, and costs no quota token.  A score-only
///     hit submitted by view is a value ticket that carries its result
///     and takes no slot; any other hit (traceback, `submit_strings`)
///     is copied into the ticket's slot.  Misses execute normally and are
///     inserted on completion.
///   * **Priority classes** (telemetry.hpp `request_class`).  Each class
///     has its own admission ring; the batcher serves `interactive`
///     strictly before `bulk`, and an interactive arrival cuts a forming
///     bulk batch's linger short — a bulk flood cannot push interactive
///     p99 past roughly one batch execution.
///   * **Tenant quotas.**  With `tenant_rate > 0`, each tenant id draws
///     from a token bucket (refill `tenant_rate`/s, depth
///     `tenant_burst`); a drained bucket rejects with `quota_error`
///     regardless of backpressure policy, so one tenant's flood cannot
///     monopolize the queues.  Cache hits are not charged.
///   * **Adaptive linger.**  With `adaptive_linger`, the batcher drives
///     the effective linger from the interactive latency histogram:
///     every 5 ms it ranks the p99 of the completions since its last
///     tick, shrinks while that exceeds `interactive_p99_target`, and
///     grows back toward `max_linger` while the tail is comfortable and
///     batches run under-full.
///
/// And the robustness layer (see ARCHITECTURE.md, "Failure domains &
/// degradation"):
///
///   * **Deadlines.**  `submit_options::deadline` is an absolute
///     steady-clock deadline; a request whose deadline passes before
///     execution starts is shed with `deadline_error` (at submit when
///     already expired, at ring drain, and at batch collection) and the
///     per-class `deadline_expired` counter ticks.  The batcher never
///     lingers past the earliest deadline in a forming batch.  `ticket`
///     gains `wait_for`/`wait_until` for deadline-aware consumers.
///   * **Fault containment.**  A batch whose execution throws is retried
///     by bisection until the poisoned request is isolated solo: the
///     culprit's ticket completes with the captured exception, innocent
///     neighbors still succeed byte-identically.  Fingerprints that fail
///     solo more than `quarantine_threshold` times are refused at
///     submit with `quarantine_error` before consuming any capacity.
///   * **Batcher containment.**  The batcher never dies: a failure
///     while it collects a batch fails that batch's members with
///     `service_down_error` and the loop carries on.  A batch runs on
///     the batcher itself when it and the shard's backlog are small, or
///     when the pool cannot take it (its job ring failed to grow) —
///     so every dispatched batch completes and a live batcher always
///     drains its own rings.
///   * **Deterministic fault injection** (service/faultinject.hpp).
///     Hook points for allocation failure, kernel exceptions, failed
///     batch hand-offs, and clock skew, driven by a seeded schedule;
///     branch-only when disarmed, so they ride in production builds for
///     free.
///
/// Admission is bounded: at most `config::queue_capacity` requests wait
/// in each class queue and at most `config::max_outstanding` slot-holding
/// tickets can be unretrieved at once (value tickets hold no slot and are
/// not counted).  When a bound is hit the configured
/// backpressure policy applies — block the submitter, reject with a
/// typed error, or shed the oldest queued request of the same class.
/// All request bookkeeping lives in rings and slot arrays sized once at
/// construction: steady-state submission and completion never allocate,
/// on the cache-hit path and the miss path alike (results that carry
/// traceback strings are the one necessary exception).
///
/// Quickstart:
/// ```
///   anyseq::service::aligner svc;
///   auto t = svc.submit(q_view, s_view, opt);    // non-blocking-ish
///   anyseq::alignment_result r = t.get();        // blocks until done
///   auto snap = svc.stats();                     // occupancy, p50/p99, ...
/// ```
///
/// Lifetime rules: sequence views passed to `submit` must stay valid
/// until the request has *completed* — normally until `ticket::get()`
/// returns.  Abandoning a ticket does NOT release that obligation: the
/// service still executes the request (it may already be mid-batch), so
/// an abandoner must keep the buffers alive until the service is shut
/// down or destroyed — or use `submit_strings`, which copies.  The
/// aligner must outlive its tickets; `shutdown(true)` (also run by the
/// destructor) drains every queued request, so pending tickets always
/// complete.  Results inserted into the cache are entry-owned copies —
/// no lifetime coupling to the submitting caller.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "parallel/thread_pool.hpp"
#include "service/batcher.hpp"
#include "service/cache.hpp"
#include "service/telemetry.hpp"

namespace anyseq::service {

/// Submission refused because a capacity bound was hit under the
/// `reject` policy (or a policy that could not make room).
class queue_full_error : public error {
 public:
  explicit queue_full_error(const std::string& what) : error(what) {}
};

/// Submission refused because the service is shutting down, or a queued
/// request failed by a no-drain shutdown.
class shutdown_error : public error {
 public:
  explicit shutdown_error(const std::string& what) : error(what) {}
};

/// A queued request was dropped by the `shed_oldest` policy to make room
/// for newer traffic; delivered through the victim's `ticket::get()`.
class shed_error : public error {
 public:
  explicit shed_error(const std::string& what) : error(what) {}
};

/// Submission refused because the tenant's token bucket is empty.
/// Thrown regardless of the backpressure policy: quotas meter a tenant's
/// *work*, they are not a capacity bound the service should block on.
class quota_error : public error {
 public:
  explicit quota_error(const std::string& what) : error(what) {}
};

/// The request's deadline passed before execution started; delivered
/// through `ticket::get()` of the shed request.
class deadline_error : public error {
 public:
  explicit deadline_error(const std::string& what) : error(what) {}
};

/// Submission refused because this exact request (query, subject,
/// options fingerprint) has repeatedly failed in isolation and is
/// quarantined as a known repeat offender.
class quarantine_error : public error {
 public:
  explicit quarantine_error(const std::string& what) : error(what) {}
};

/// The batcher failed while collecting this request's batch; delivered
/// through `ticket::get()` of each member of that batch.
class service_down_error : public error {
 public:
  explicit service_down_error(const std::string& what) : error(what) {}
};

/// What `submit` does when a capacity bound is hit.
enum class backpressure : std::uint8_t {
  block,       ///< wait until room frees up (default)
  reject,      ///< throw queue_full_error immediately
  shed_oldest  ///< drop the oldest *queued* request of the same class
               ///< (its ticket fails with shed_error); falls back to
               ///< reject when nothing is queued to shed
};

[[nodiscard]] const char* to_string(backpressure p) noexcept;

/// Per-request admission attributes; defaults reproduce the
/// pre-serving-tier behaviour (interactive, tenant 0).
struct submit_options {
  request_class cls = request_class::interactive;
  /// Tenant id for quota accounting; must be < config::max_tenants when
  /// quotas are enabled.
  std::uint32_t tenant = 0;
  /// Absolute completion deadline (steady clock); `time_point::max()`
  /// means none.  An expired request is shed with `deadline_error`
  /// instead of executed: already-expired submissions fail their ticket
  /// immediately, queued ones are shed when the batcher drains or
  /// collects them.  A request already executing is always delivered.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Service tuning.  Everything is fixed at construction; the slot array,
/// admission rings, batch workspaces, tenant buckets, and the optional
/// cache are allocated once from these numbers.
struct config {
  /// Flush a forming batch at this many requests.
  std::size_t max_batch = 64;
  /// Flush a forming batch this long after its first request, even if
  /// not full — the latency cost of waiting for stragglers.  With
  /// `adaptive_linger` this is the controller's *upper* bound.
  std::chrono::microseconds max_linger{200};
  /// Bound on requests waiting in each class's admission queue.  Checked
  /// at admission time; under heavy producer concurrency the
  /// instantaneous depth can exceed it by at most the number of
  /// submissions that are mid-flight (filling their already-admitted
  /// slot).
  std::size_t queue_capacity = 1024;
  /// Bound on unretrieved tickets (0 = 4 * queue_capacity).  This is
  /// also the slot-array size: a ticket holds its slot until `get()`.
  /// Value tickets (score-only cache hits submitted by view) hold no slot
  /// and do not count against it.
  std::size_t max_outstanding = 0;
  backpressure policy = backpressure::block;
  /// Batches executing concurrently on the pool (0 = pool size).
  std::size_t max_inflight_batches = 0;
  /// Response-cache entries owned by this service (0 = no cache).
  /// Ignored when `shared_cache` is set.
  std::size_t cache_capacity = 0;
  /// Lock shards of the owned cache (see response_cache::config).
  std::size_t cache_shards = 8;
  /// Externally owned cache, shared across services (a `service_group`
  /// fronts all its shards with one).  Must outlive the service.
  response_cache* shared_cache = nullptr;

  /// Let the batcher steer the effective linger inside
  /// [min_linger, max_linger] from the interactive latency histogram.
  bool adaptive_linger = false;
  std::chrono::microseconds min_linger{20};
  /// Interactive p99 the adaptive controller tries to stay under.
  std::chrono::microseconds interactive_p99_target{2000};

  /// Tenant token buckets: refill rate in requests/second (0 = quotas
  /// off) and bucket depth (0 = max(1, tenant_rate)).  Cache hits are
  /// not charged.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  /// Size of the tenant table; submit with `tenant >= max_tenants`
  /// throws invalid_argument_error when quotas are enabled.
  std::size_t max_tenants = 64;

  /// A forming batch with deadline-carrying members flushes this long
  /// before the earliest member deadline, so execution still has a
  /// chance to beat it (a batch flushed *at* the deadline would only be
  /// shed at collection).
  std::chrono::microseconds deadline_headroom{500};

  /// Repeat-offender quarantine table size (0 = quarantine off).
  std::size_t quarantine_capacity = 32;
  /// Solo-isolated execution failures of one request fingerprint before
  /// submissions of it are refused with quarantine_error.
  std::uint32_t quarantine_threshold = 2;
};

class aligner;

/// Future-like handle to one submitted request.  Move-only; `get()`
/// blocks until the result is ready, returns it, and releases the
/// underlying slot.  A ticket destroyed without `get()` abandons the
/// request: the service still executes it and recycles its slot as soon
/// as the result lands (so view-based submissions must keep their
/// buffers alive — see the lifetime rules above).
///
/// A score-only cache hit submitted by view is a *value ticket*: it
/// carries the result itself, holds no slot, and is ready when made —
/// `ready()` and `wait_*()` return true at once and abandoning it costs
/// nothing.
class ticket {
 public:
  ticket() noexcept = default;
  ticket(ticket&& other) noexcept;
  ticket& operator=(ticket&& other) noexcept;
  ~ticket();
  ticket(const ticket&) = delete;
  ticket& operator=(const ticket&) = delete;

  /// False for default-constructed, moved-from, or consumed tickets.
  [[nodiscard]] bool valid() const noexcept {
    return p_.slot.tag != form::empty;
  }

  /// True once the result (or error) is available; `get()` won't block.
  [[nodiscard]] bool ready() const;

  /// Block until the request completes or `timeout` elapses; true when
  /// the result (or error) is ready.  Does NOT consume the ticket —
  /// follow up with `get()`.
  [[nodiscard]] bool wait_for(std::chrono::microseconds timeout) const;

  /// Deadline flavour of `wait_for`: wait until `tp` at the latest.
  [[nodiscard]] bool wait_until(
      std::chrono::steady_clock::time_point tp) const;

  /// Block until the request completes; return the result or rethrow
  /// the request's error (shed_error, shutdown_error, or whatever the
  /// dispatcher threw).  Consumes the ticket.
  [[nodiscard]] alignment_result get();

 private:
  friend class aligner;

  enum class form : std::uint8_t { empty, slot, value };

  /// A request held in a service slot.
  struct slot_form {
    form tag;
    std::uint32_t idx;
    aligner* svc;
    std::uint64_t gen;
  };
  /// A score-only result held inline: begins are 0, no strings, no
  /// traceback.  `variant` indexes exec_variant_name's engine names.
  struct value_form {
    form tag;
    std::uint8_t variant;
    score_t score;
    std::uint64_t cells;
    std::uint32_t q_end, s_end;
  };

  ticket(aligner* svc, std::uint32_t slot, std::uint64_t gen) noexcept
      : p_{slot_form{form::slot, slot, svc, gen}} {}

  /// The value form of `r` when `r` has its shape — score-only, both
  /// ends within 32 bits, a variant in the engine-name table — else an
  /// empty ticket.
  [[nodiscard]] static ticket value_of(const alignment_result& r) noexcept;

  /// Release or abandon the held request (dtor / move-assign).
  void retire() noexcept;

  // Both forms start with `tag` (a common initial sequence), so it reads
  // through either member; a move copies the union whole.
  union payload {
    slot_form slot;
    value_form value;
  };
  payload p_{};
};
// perfbench's mixed_open sizes two in-flight ticket arrays to its whole
// schedule: a ticket that also held a full alignment_result (160 bytes)
// raised that workload's peak RSS from 57 to 82 MB in 8 s runs.
static_assert(sizeof(ticket) == 24, "ticket size shows up in peak RSS");

/// The asynchronous alignment service.  Thread-safe: any number of
/// producer threads may submit concurrently.
class aligner {
 public:
  /// Starts the batcher thread.  Throws invalid_argument_error on
  /// nonsensical configuration (zero batch size, negative linger, ...).
  explicit aligner(config cfg = {});

  /// Equivalent to shutdown(true).  Destroy only after every ticket has
  /// been retrieved or abandoned.
  ~aligner();

  aligner(const aligner&) = delete;
  aligner& operator=(const aligner&) = delete;

  /// Submit one alignment request.  The views must stay valid until the
  /// request completes (see the lifetime rules in the file comment).
  /// Throws validation_error for bad options (same checks as
  /// `anyseq::align`, applied before any capacity is consumed),
  /// queue_full_error / shutdown_error per the backpressure policy and
  /// service state, quota_error when the tenant's bucket is empty, and
  /// quarantine_error for a known repeat-offender request.
  [[nodiscard]] ticket submit(stage::seq_view q, stage::seq_view s,
                              const align_options& opt = {},
                              const submit_options& so = {});

  /// Like submit(), but DNA-encodes and copies the strings into
  /// slot-owned storage — no lifetime obligation on the caller.  The
  /// copy reuses each slot's buffers, so steady state stays
  /// allocation-free once buffers have grown to the working set.
  [[nodiscard]] ticket submit_strings(std::string_view q, std::string_view s,
                                      const align_options& opt = {},
                                      const submit_options& so = {});

  /// Counter + latency snapshot, summed over the counter stripes; cheap
  /// enough for a metrics scrape loop.  Even while requests land, no
  /// class reads more completed + failed than accepted.
  [[nodiscard]] service_stats stats() const;

  /// Render this service's metrics as Prometheus text exposition into
  /// `buf` with the snprintf contract: writes up to `cap - 1` bytes plus
  /// a NUL and returns the byte count the full exposition needs
  /// (excluding the NUL), so `dump_metrics(nullptr, 0)` sizes a buffer.
  std::size_t dump_metrics(char* buf, std::size_t cap) const;

  /// Stop accepting work.  With drain=true (default) every queued
  /// request still executes; with drain=false queued requests fail with
  /// shutdown_error (batches already forming or executing complete
  /// either way).  Blocks until the batcher thread has exited and no
  /// batch is in flight; idempotent and safe to call concurrently.
  /// Tickets remain retrievable after shutdown.
  void shutdown(bool drain = true);

  [[nodiscard]] const config& settings() const noexcept { return cfg_; }

  /// A batch runs on the batcher thread that formed it when its
  /// `q.size() * s.size()` cells plus those of every request still
  /// queued on the shard sum to at most this; otherwise it goes to the
  /// pool.  2^18 is about eleven 150 x 150 pairs (DESIGN.md §12).
  static constexpr std::uint64_t inline_cell_bound = std::uint64_t{1} << 18;

  /// The counters every request bumps once — accepted, completed,
  /// failed, cache hits and misses, and the class latency histograms —
  /// live on this many copies, each on cache lines of its own.  A thread
  /// takes one round robin at its first counted request and keeps it;
  /// stats() sums them.  Eight threads that start counting one after
  /// another get eight different stripes; a thread that shares one
  /// costs contention, never a count (DESIGN.md §13, "What a hit
  /// writes").
  static constexpr std::size_t counter_stripes = 8;

  /// The attached response cache (owned or shared); nullptr when
  /// caching is disabled.
  [[nodiscard]] response_cache* cache() const noexcept { return cache_; }

  /// Instantaneous total admission depth across both class rings —
  /// arrivals a lingering batcher has not pulled yet included — as a
  /// relaxed-atomic mirror for the router's load-spill decision (no
  /// lock taken; may lag by a few requests).
  [[nodiscard]] std::size_t approx_queue_depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

  /// Linger the batcher currently applies (== max_linger unless the
  /// adaptive controller moved it).
  [[nodiscard]] std::chrono::nanoseconds effective_linger() const noexcept {
    return std::chrono::nanoseconds(
        linger_ns_.load(std::memory_order_relaxed));
  }

 private:
  friend class ticket;

  static constexpr std::size_t n_cls = n_request_classes;

  enum class slot_state : std::uint8_t {
    free_slot,  ///< on the freelist
    queued,     ///< admitted: in the ring, forming, or executing
    done,       ///< result ready
    failed      ///< error ready
  };

  /// One request's storage, reused across generations.  `gen` guards
  /// against stale tickets; `m`/`cv` hand the completion to `get()`.
  struct slot {
    std::mutex m;
    std::condition_variable cv;
    slot_state st = slot_state::free_slot;
    bool abandoned = false;
    std::uint64_t gen = 0;
    stage::seq_view q, s;
    align_options opt;
    request_class cls = request_class::interactive;
    std::uint32_t tenant = 0;
    std::vector<char_t> q_store, s_store;  ///< submit_strings copies
    alignment_result result;
    std::exception_ptr error;
    std::chrono::steady_clock::time_point t_submit;
    /// cache_key_hash of (q, s, opt), computed once at submit: the cache
    /// slot of the probe and the insert, and the quarantine and
    /// fault-poison fingerprint.
    std::uint64_t key_hash = 0;
    /// Trace-clock time this request entered its admission ring (0 when
    /// tracing was disarmed at enqueue) — start of the ring_wait span.
    std::int64_t t_queued_ns = 0;
    /// Absolute deadline; time_point::max() = none (the common case —
    /// deadline checks are a branch against a cached constant).
    std::chrono::steady_clock::time_point deadline;
  };

  /// One class's admission queue (FIFO ring over slot indices).
  struct admission_ring {
    std::vector<std::uint32_t> buf;
    std::size_t head = 0, count = 0;
    std::uint64_t cells = 0;  ///< Σ |q|·|s| over the queued requests
  };

  /// Reusable per-batch execution unit; one per concurrently executing
  /// batch.  Each unit owns a full `anyseq::aligner` — the same
  /// plan/execute workspace arena the synchronous API uses — plus
  /// recycled result storage, so steady-state batch execution carves
  /// every DP buffer from a warm arena instead of allocating (results
  /// that carry traceback strings are the one necessary exception: their
  /// buffers leave with the client).
  struct exec_unit {
    std::vector<std::uint32_t> items;
    std::vector<seq_pair> pairs;
    std::vector<alignment_result> results;  ///< batch output, reused
    alignment_result scratch;               ///< solo output, reused
    anyseq::aligner eng;                    ///< reusable engine workspace
  };

  /// Per-tenant token bucket (guarded by mu_).
  struct token_bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last{};
    bool init = false;
  };

  ticket submit_impl(stage::seq_view q, stage::seq_view s,
                     std::string_view q_chars, std::string_view s_chars,
                     bool copy_strings, const align_options& opt,
                     const submit_options& so);
  /// What submit's checks found, in the order it runs them.
  enum class intake : std::uint8_t { quarantined, expired, hit, miss };
  /// Hash the request's key into `key`, check it against the
  /// quarantine, then its deadline, then probe the cache; a hit's result
  /// lands in `out`.  `id` tags the trace events: the request's slot
  /// index, or trace::no_slot.
  intake screen(stage::seq_view q, stage::seq_view s, const align_options& opt,
                const submit_options& so, alignment_result& out,
                std::uint32_t id, std::uint64_t& key);
  /// One thread's copy of the per-request counters (counter_stripes).
  /// A completion or failure is counted with release, so a scrape that
  /// reads it with acquire also reads the admission counted before it.
  struct alignas(64) counter_stripe {
    std::atomic<std::uint64_t> accepted[n_cls] = {};
    std::atomic<std::uint64_t> completed[n_cls] = {};
    std::atomic<std::uint64_t> failed[n_cls] = {};
    std::atomic<std::uint64_t> cache_hits[n_cls] = {};
    std::atomic<std::uint64_t> cache_misses{0};
    /// Completion latency per class: the source of every percentile.
    latency_histogram hist[n_cls];
  };
  /// The calling thread's stripe.  Never allocates.
  [[nodiscard]] counter_stripe& stripe() noexcept;
  /// Count a cache hit of class `ci` as accepted and completed.
  void count_hit(std::size_t ci,
                 std::chrono::steady_clock::time_point t_submit) noexcept;
  /// Batcher thread body: runs batcher_iteration until it reports the
  /// service stopped and drained.  An exception from an iteration fails
  /// the members it had collected and the loop carries on.
  void batcher_loop();
  /// One collect+dispatch round over `batch_`; false = exit the loop
  /// (stopping and nothing queued).  On an escaping exception the
  /// members left in `batch_` are failed by the caller.
  bool batcher_iteration();
  void adapt_linger(std::chrono::steady_clock::time_point now);
  void execute(std::uint32_t ws_index);
  /// Execute items [lo, hi) of `ws`, containing failures by bisection:
  /// a span whose batch execution throws is split and each half retried,
  /// until the poisoned request is isolated solo and only its ticket
  /// fails.  Single-item spans go through run_solo.
  void run_span(exec_unit& ws, std::size_t lo, std::size_t hi);
  /// Execute one request in isolation; a failure is captured into its
  /// ticket and recorded against its fingerprint for the quarantine.
  void run_solo(exec_unit& ws, std::uint32_t idx);
  /// Deliver one request's outcome.  Never throws: a success whose
  /// cache insert fails is still delivered, just uncached.
  void complete(std::uint32_t idx, alignment_result&& r,
                std::exception_ptr e) noexcept;
  /// Requires mu_ held: fail a request popped from the admission ring.
  void fail_dequeued_locked(std::uint32_t idx, std::exception_ptr e);
  /// Requires mu_ held: shed an expired dequeued request with
  /// deadline_error and count it.
  void fail_expired_locked(std::uint32_t idx);
  void release_slot(std::uint32_t idx);
  /// Requires mu_ held: refill + draw one token; false when drained.
  [[nodiscard]] bool take_token(std::uint32_t tenant,
                                std::chrono::steady_clock::time_point now);

  /// Record one engine call in the (route, variant) execution table:
  /// `requests` items, `cells` DP cells relaxed, `ns` engine wall time.
  void note_exec(route rt, const char* variant, std::uint64_t requests,
                 std::uint64_t cells, std::uint64_t ns) noexcept;

  /// Record one solo-isolated execution failure of fingerprint `fp`.
  void record_offender(std::uint64_t fp) noexcept;
  [[nodiscard]] bool is_quarantined(std::uint64_t fp) const noexcept;

  /// Deadline clock: steady_clock::now() plus the armed fault
  /// schedule's skew (honest clock in production).
  [[nodiscard]] static std::chrono::steady_clock::time_point skewed_now();

  // Admission ring helpers; call with mu_ held.
  [[nodiscard]] std::uint32_t ring_pop(admission_ring& r) noexcept;
  void ring_push(admission_ring& r, std::uint32_t idx) noexcept;
  /// Extract up to `max_take` requests batchable with `lead` from
  /// anywhere in ring `r`, compacting the rest in FIFO order.  Expired
  /// entries encountered during the walk are shed with deadline_error
  /// instead of kept; `earliest_deadline` tightens to the earliest
  /// deadline among the *taken* requests.
  std::size_t ring_extract_compatible(
      admission_ring& r, const slot& lead,
      std::vector<std::uint32_t>& batch, std::size_t max_take,
      std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point& earliest_deadline);
  /// Requires mu_ held, with `sl` just pushed onto `ring`: whether the
  /// batcher must be woken for it.  Always when the batcher is not
  /// lingering; while it lingers, only when the arrival could flush the
  /// forming batch or move its deadline (DESIGN.md §12).
  [[nodiscard]] bool wakes_batcher_locked(
      const slot& sl, const admission_ring& ring) const noexcept;
  [[nodiscard]] admission_ring& ring_of(request_class c) noexcept {
    return rings_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::size_t queued_total() const noexcept {
    return rings_[0].count + rings_[1].count;
  }
  [[nodiscard]] std::uint64_t queued_cells() const noexcept {
    return rings_[0].cells + rings_[1].cells;
  }
  /// The request's DP cells, |q|·|s|.
  [[nodiscard]] std::uint64_t cells_of(std::uint32_t idx) const noexcept {
    return static_cast<std::uint64_t>(slots_[idx].q.size()) *
           static_cast<std::uint64_t>(slots_[idx].s.size());
  }

  config cfg_;
  parallel::thread_pool* pool_;

  mutable std::mutex mu_;
  /// Work arrived / stopping.  While the batcher lingers, a submit
  /// notifies it only for an arrival that wakes_batcher_locked accepts.
  std::condition_variable batcher_cv_;
  std::condition_variable space_cv_;     ///< admission room freed
  std::condition_variable inflight_cv_;  ///< batch finished / ws freed
  std::vector<slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free slot indices (stack)
  admission_ring rings_[n_cls];      ///< per-class admission queues
  std::vector<exec_unit> exec_units_;
  std::vector<std::uint32_t> free_ws_;
  std::vector<token_bucket> buckets_;  ///< per-tenant quota state
  std::size_t inflight_ = 0;
  /// Written under mu_; a score-only hit reads it without mu_.
  std::atomic<bool> accepting_{true};
  bool stopping_ = false;
  /// While the batcher lingers: its forming batch's lead slot and the
  /// room left in that batch; `no_linger` otherwise.
  static constexpr std::uint32_t no_linger = 0xFFFFFFFF;
  std::uint32_t linger_lead_ = no_linger;
  std::size_t linger_room_ = 0;

  /// Repeat-offender quarantine: a fixed table of (fingerprint, solo
  /// failure count), round-robin overwritten.  `q_active_` mirrors the
  /// number of entries at/above the threshold so the submit happy path
  /// pays one relaxed load and a never-taken branch.
  struct q_entry {
    std::uint64_t fp = 0;
    std::uint32_t offenses = 0;
  };
  mutable std::mutex q_mu_;  ///< leaf lock (never held with mu_)
  std::vector<q_entry> q_entries_;
  std::size_t q_clock_ = 0;
  std::atomic<std::size_t> q_active_{0};

  std::mutex shutdown_mu_;  ///< serializes shutdown(); taken before mu_
  bool shut_down_ = false;

  std::unique_ptr<response_cache> owned_cache_;
  response_cache* cache_ = nullptr;  ///< owned_cache_ or cfg_.shared_cache

  /// The counters every request writes, one stripe per thread: a hit
  /// writes only its own thread's lines (DESIGN.md §13).
  counter_stripe stripes_[counter_stripes];
  // The counters a rare outcome or a batch writes start on a cache line
  // of their own, so no layout change can put them beside read-mostly
  // members that every submit reads (`cfg_`, `cache_`).
  alignas(64) std::atomic<std::uint64_t> rejected_[n_cls] = {};
  std::atomic<std::uint64_t> shed_[n_cls] = {};
  std::atomic<std::uint64_t> quota_rejected_[n_cls] = {};
  std::atomic<std::uint64_t> deadline_expired_[n_cls] = {};
  std::atomic<std::uint64_t> quarantined_[n_cls] = {};
  std::atomic<std::uint64_t> batches_{0}, batched_requests_{0};
  std::atomic<std::uint64_t> inline_batches_{0};  ///< run on the batcher
  // Batch score-path accounting (see telemetry.hpp): summed from the
  // unit aligner's last_batch_stats after every batch run (score paths
  // from batch_score, band doubling from batch_traceback) and, for band
  // doubling, after every solo run.
  std::atomic<std::uint64_t> batch_simd_pairs_{0};
  std::atomic<std::uint64_t> batch_scalar_pairs_{0};
  std::atomic<std::uint64_t> batch_ragged_pairs_{0};
  std::atomic<std::uint64_t> batch_striped_pairs_{0};
  std::atomic<std::uint64_t> batch_padded_cells_{0};
  std::atomic<std::uint64_t> batch_banded_pairs_{0};
  std::atomic<std::uint64_t> batch_band_passes_{0};
  std::atomic<std::size_t> depth_{0};  ///< mirror of queued_total()
  std::atomic<std::int64_t> linger_ns_{0};  ///< effective linger
  /// Per-route x per-variant execution accounting (see note_exec).
  std::atomic<std::uint64_t> exec_requests_[n_exec_routes][n_exec_variants] =
      {};
  std::atomic<std::uint64_t> exec_cells_[n_exec_routes][n_exec_variants] = {};
  std::atomic<std::uint64_t> exec_ns_[n_exec_routes][n_exec_variants] = {};

  /// The batch the batcher is collecting (batcher thread only; reserved
  /// to max_batch at construction, so the thread never allocates).  Its
  /// own cache line: the batcher writes it per collected request, and
  /// the batcher and pool workers write the counters above per batch.
  alignas(64) std::vector<std::uint32_t> batch_;

  // Adaptive-linger controller state (batcher thread only).
  std::chrono::steady_clock::time_point next_adapt_{};
  std::uint64_t adapt_last_batches_ = 0;
  std::uint64_t adapt_last_batched_requests_ = 0;
  /// The interactive histogram, summed over the stripes, as of the last
  /// tick: a tick ranks the window since then, not the lifetime.
  histogram_snapshot adapt_last_hist_;

  // The thread last: it starts after all state above is ready.
  std::thread batcher_;
};

}  // namespace anyseq::service
