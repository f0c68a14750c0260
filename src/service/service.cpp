/// \file service.cpp
/// The asynchronous alignment service: slot lifecycle, classed admission
/// with backpressure and tenant quotas, the cache-fronted submit path,
/// the batcher thread with its adaptive-linger controller, and batch
/// execution: a small batch with a short backlog on the batcher thread
/// that formed it, any other on the global thread pool.
///
/// Locking discipline (the whole file follows it):
///   * `mu_` guards the admission rings, the slot/workspace freelists,
///     the tenant token buckets, the accepting/stopping flags, and slot
///     field initialization during submit (a free slot is owned by the
///     submitting thread).
///   * `slot::m` guards one request's completion state (st, result,
///     error, abandoned) from enqueue to retirement.
///   * The only place both are held is mu_ -> slot::m (submit and
///     fail_dequeued_locked); nothing acquires mu_ while holding a
///     slot mutex, so the order is acyclic.
///   * Batcher and executor read slot inputs (q, s, opt, rt, cls)
///     without slot::m: those fields are written before the index is
///     published under mu_ and are immutable until retirement, and every
///     handoff (submit -> batcher via mu_, batcher -> executor via the
///     pool's job queue) is a release/acquire edge.  A batch run inline
///     needs no second edge: its executor is the batcher itself.
///   * The batcher's linger state (`linger_lead_`, `linger_room_`) is
///     written by the batcher and read by submit only under mu_; the
///     wake predicate reads the lead slot's inputs under it too.
///   * The response cache has its own shard locks and is never touched
///     while mu_ or a slot mutex is held.
///   * A score-only hit submitted by view takes neither: it reads
///     `accepting_`, an atomic written under mu_, and the cache's shard
///     lock is the only lock it holds.
///   * `q_mu_` (quarantine table) is a leaf: taken from submit and the
///     executor, never while holding mu_ or a slot mutex and never
///     around anything that locks.
///
/// Containment discipline: the batcher thread lives as long as the
/// service.  Everything it collects under mu_ is either dispatched or
/// failed — batcher_loop's catch fails a half-collected batch — and a
/// dispatched batch always executes: on the batcher when it and the
/// shard's backlog are within inline_cell_bound cells, otherwise on the
/// pool or, when the hand-off throws, on the batcher after all.  So
/// inflight_ always drops back and shutdown's drain needs nothing but
/// the batcher.

#include "service/service.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "core/alphabet.hpp"
#include "service/faultinject.hpp"
#include "service/trace.hpp"

namespace anyseq::service {

namespace {

using clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t ns_between(clock::time_point a,
                                       clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

[[nodiscard]] std::int64_t to_ns(std::chrono::microseconds us) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(us).count();
}

[[nodiscard]] std::int64_t epoch_ns(clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

/// This thread's counter stripe in every service; `no_stripe` until its
/// first counted request.  A plain thread_local, so taking it never
/// allocates.
constexpr std::uint32_t no_stripe = 0xFFFFFFFF;
constinit thread_local std::uint32_t t_stripe = no_stripe;
/// Deals stripes round robin: threads that start together get
/// different ones.
std::atomic<std::uint32_t> next_stripe{0};

}  // namespace

const char* to_string(backpressure p) noexcept {
  switch (p) {
    case backpressure::block: return "block";
    case backpressure::reject: return "reject";
    case backpressure::shed_oldest: return "shed_oldest";
  }
  return "?";
}

// ---------------------------------------------------------------------
// ticket
// ---------------------------------------------------------------------

ticket ticket::value_of(const alignment_result& r) noexcept {
  constexpr index_t max32 = 0xFFFFFFFF;
  ticket t;
  if (r.has_alignment || r.q_begin != 0 || r.s_begin != 0 || r.q_end < 0 ||
      r.q_end > max32 || r.s_end < 0 || r.s_end > max32 ||
      !r.q_aligned.empty() || !r.s_aligned.empty() || !r.cigar.empty() ||
      r.variant == nullptr)
    return t;
  // The variant must come back from the name table as an equal string.
  const std::size_t v = exec_variant_index(r.variant);
  if (std::strcmp(exec_variant_name(v), r.variant) != 0) return t;
  t.p_.value = {form::value, static_cast<std::uint8_t>(v), r.score, r.cells,
                static_cast<std::uint32_t>(r.q_end),
                static_cast<std::uint32_t>(r.s_end)};
  return t;
}

ticket::ticket(ticket&& other) noexcept : p_(other.p_) {
  other.p_.slot.tag = form::empty;
}

ticket& ticket::operator=(ticket&& other) noexcept {
  if (this != &other) {
    retire();
    p_ = other.p_;
    other.p_.slot.tag = form::empty;
  }
  return *this;
}

ticket::~ticket() { retire(); }

void ticket::retire() noexcept {
  if (p_.slot.tag != form::slot) {  // a value holds nothing
    p_.slot.tag = form::empty;
    return;
  }
  const slot_form h = p_.slot;
  p_.slot.tag = form::empty;
  aligner::slot& sl = h.svc->slots_[h.idx];
  std::unique_lock lock(sl.m);
  if (sl.gen != h.gen) return;  // defensive; cannot happen for live tickets
  if (sl.st == aligner::slot_state::done ||
      sl.st == aligner::slot_state::failed) {
    sl.st = aligner::slot_state::free_slot;
    sl.result = {};
    sl.error = nullptr;
    lock.unlock();
    h.svc->release_slot(h.idx);
    return;
  }
  // Still in flight (queued, forming, or executing): the completer
  // recycles the slot when the result lands.
  sl.abandoned = true;
}

bool ticket::wait_until(std::chrono::steady_clock::time_point tp) const {
  const slot_form& h = p_.slot;
  if (h.tag == form::empty)
    throw invalid_argument_error("ticket::wait_until on an empty ticket");
  if (h.tag == form::value) return true;
  aligner::slot& sl = h.svc->slots_[h.idx];
  std::unique_lock lock(sl.m);
  if (sl.gen != h.gen)
    throw invalid_argument_error("ticket::wait_until on a stale ticket");
  return sl.cv.wait_until(lock, tp, [&] {
    return sl.st == aligner::slot_state::done ||
           sl.st == aligner::slot_state::failed;
  });
}

bool ticket::wait_for(std::chrono::microseconds timeout) const {
  return wait_until(std::chrono::steady_clock::now() + timeout);
}

bool ticket::ready() const {
  const slot_form& h = p_.slot;
  if (h.tag == form::empty)
    throw invalid_argument_error("ticket::ready on an empty ticket");
  if (h.tag == form::value) return true;
  aligner::slot& sl = h.svc->slots_[h.idx];
  std::lock_guard lock(sl.m);
  return sl.gen == h.gen && (sl.st == aligner::slot_state::done ||
                             sl.st == aligner::slot_state::failed);
}

alignment_result ticket::get() {
  if (p_.slot.tag == form::empty)
    throw invalid_argument_error("ticket::get on an empty ticket");
  alignment_result out;
  if (p_.slot.tag == form::value) {
    const value_form& v = p_.value;
    out.score = v.score;
    out.q_end = v.q_end;
    out.s_end = v.s_end;
    out.cells = v.cells;
    out.variant = exec_variant_name(v.variant);
    p_.value.tag = form::empty;
    return out;
  }
  const slot_form h = p_.slot;
  aligner::slot& sl = h.svc->slots_[h.idx];
  std::exception_ptr err;
  {
    std::unique_lock lock(sl.m);
    if (sl.gen != h.gen)
      throw invalid_argument_error("ticket::get on a stale ticket");
    sl.cv.wait(lock, [&] {
      return sl.st == aligner::slot_state::done ||
             sl.st == aligner::slot_state::failed;
    });
    if (sl.st == aligner::slot_state::failed)
      err = sl.error;
    else
      out = std::move(sl.result);
    sl.st = aligner::slot_state::free_slot;
    sl.result = {};
    sl.error = nullptr;
  }
  p_.slot.tag = form::empty;
  h.svc->release_slot(h.idx);
  if (err) std::rethrow_exception(err);
  return out;
}

// ---------------------------------------------------------------------
// aligner: construction / configuration
// ---------------------------------------------------------------------

aligner::aligner(config cfg)
    : cfg_(cfg), pool_(&parallel::thread_pool::global()) {
  if (cfg_.max_batch < 1)
    throw invalid_argument_error("service: max_batch must be >= 1");
  if (cfg_.queue_capacity < 1)
    throw invalid_argument_error("service: queue_capacity must be >= 1");
  if (cfg_.max_linger.count() < 0)
    throw invalid_argument_error("service: max_linger must be >= 0");
  if (cfg_.adaptive_linger) {
    if (cfg_.min_linger.count() < 0)
      throw invalid_argument_error("service: min_linger must be >= 0");
    if (cfg_.min_linger > cfg_.max_linger)
      throw invalid_argument_error(
          "service: min_linger must be <= max_linger");
    if (cfg_.interactive_p99_target.count() <= 0)
      throw invalid_argument_error(
          "service: interactive_p99_target must be > 0");
  }
  if (cfg_.tenant_rate < 0.0 || cfg_.tenant_burst < 0.0)
    throw invalid_argument_error(
        "service: tenant_rate/tenant_burst must be >= 0");
  if (cfg_.tenant_rate > 0.0 && cfg_.max_tenants < 1)
    throw invalid_argument_error(
        "service: max_tenants must be >= 1 when quotas are enabled");
  if (cfg_.deadline_headroom.count() < 0)
    throw invalid_argument_error("service: deadline_headroom must be >= 0");
  if (cfg_.quarantine_threshold < 1) cfg_.quarantine_threshold = 1;
  if (cfg_.max_outstanding == 0)
    cfg_.max_outstanding = 4 * cfg_.queue_capacity;
  if (cfg_.max_outstanding < cfg_.queue_capacity)
    throw invalid_argument_error(
        "service: max_outstanding must be >= queue_capacity");
  if (cfg_.max_inflight_batches == 0)
    cfg_.max_inflight_batches =
        static_cast<std::size_t>(std::max(1, pool_->size()));

  slots_ = std::vector<slot>(cfg_.max_outstanding);
  free_.reserve(cfg_.max_outstanding);
  // Lowest index on top of the stack: small deployments touch few slots.
  for (std::size_t i = cfg_.max_outstanding; i > 0; --i)
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  // Each ring sized to max_outstanding, not queue_capacity: the
  // admission check and the publish happen under separate mu_ holds (the
  // slot fill in between is lock-free), so the instantaneous depth can
  // briefly exceed the soft queue_capacity bound by the number of
  // in-flight submissions — but never the number of slots.
  for (auto& r : rings_) r.buf.assign(cfg_.max_outstanding, 0);
  exec_units_ = std::vector<exec_unit>(cfg_.max_inflight_batches);
  free_ws_.reserve(cfg_.max_inflight_batches);
  for (std::size_t w = cfg_.max_inflight_batches; w > 0; --w)
    free_ws_.push_back(static_cast<std::uint32_t>(w - 1));
  batch_.reserve(cfg_.max_batch);
  for (auto& ws : exec_units_) {
    ws.items.reserve(cfg_.max_batch);
    ws.pairs.reserve(cfg_.max_batch);
    ws.results.reserve(cfg_.max_batch);
  }
  if (cfg_.tenant_rate > 0.0)
    buckets_ = std::vector<token_bucket>(cfg_.max_tenants);

  if (cfg_.shared_cache != nullptr) {
    cache_ = cfg_.shared_cache;
  } else if (cfg_.cache_capacity > 0) {
    owned_cache_ = std::make_unique<response_cache>(
        response_cache::config{cfg_.cache_capacity, cfg_.cache_shards});
    cache_ = owned_cache_.get();
  }

  if (cfg_.quarantine_capacity > 0)
    q_entries_.assign(cfg_.quarantine_capacity, q_entry{});

  linger_ns_.store(to_ns(cfg_.max_linger), std::memory_order_relaxed);

  batcher_ = std::thread([this] { batcher_loop(); });
  parallel::name_thread(batcher_, "anyseq-batcher");
}

aligner::~aligner() { shutdown(true); }

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

std::uint32_t aligner::ring_pop(admission_ring& r) noexcept {
  const std::uint32_t idx = r.buf[r.head];
  r.head = (r.head + 1) % r.buf.size();
  --r.count;
  r.cells -= cells_of(idx);
  depth_.fetch_sub(1, std::memory_order_relaxed);
  return idx;
}

void aligner::ring_push(admission_ring& r, std::uint32_t idx) noexcept {
  r.buf[(r.head + r.count) % r.buf.size()] = idx;
  ++r.count;
  r.cells += cells_of(idx);
  depth_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t aligner::ring_extract_compatible(
    admission_ring& r, const slot& lead, std::vector<std::uint32_t>& batch,
    std::size_t max_take, clock::time_point now,
    clock::time_point& earliest_deadline) {
  // Walk the whole ring: extract requests batchable with `lead`, compact
  // the incompatible ones in place so their FIFO order is untouched.
  // This keeps occupancy high when several option classes interleave
  // (concurrent heterogeneous producers) — a compatible-prefix-only
  // batcher degrades to one request per batch on round-robin traffic.
  // The walk is also a deadline shed point: an expired entry is failed
  // here, whether or not it would have been batchable.
  std::size_t taken = 0, kept = 0, expired = 0;
  const std::size_t count = r.count;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t idx = r.buf[(r.head + i) % r.buf.size()];
    const slot& sl = slots_[idx];
    if (sl.deadline != clock::time_point::max() && now >= sl.deadline) {
      // Counted out of the ring below; fail after compaction so the
      // ring is never observed mid-walk with a failed member.
      batch.push_back(idx);  // tail scratch, removed before return
      ++expired;
      r.cells -= cells_of(idx);
      continue;
    }
    if (taken < max_take && options_compatible(sl.opt, lead.opt)) {
      batch.insert(batch.end() - expired, idx);
      ++taken;
      r.cells -= cells_of(idx);
    } else {
      r.buf[(r.head + kept) % r.buf.size()] = idx;
      ++kept;
    }
  }
  r.count = kept;
  if (taken + expired > 0)
    depth_.fetch_sub(taken + expired, std::memory_order_relaxed);
  for (std::size_t i = 0; i < expired; ++i) {
    fail_expired_locked(batch.back());
    batch.pop_back();
  }
  for (std::size_t i = batch.size() - taken; i < batch.size(); ++i) {
    const clock::time_point d = slots_[batch[i]].deadline;
    if (d < earliest_deadline) earliest_deadline = d;
  }
  return taken;
}

bool aligner::wakes_batcher_locked(const slot& sl,
                                   const admission_ring& ring) const noexcept {
  // Not lingering: idle on batcher_cv_ (the arrival is its work) or busy
  // elsewhere (the notify finds no waiter).
  if (linger_lead_ == no_linger) return true;
  // While it lingers, the batcher's next walk would flush or reschedule
  // only for one of these; any other arrival waits in the ring for the
  // walk at the end of the linger.
  const slot& lead = slots_[linger_lead_];
  return ring.count >= linger_room_ ||            // the batch can fill
         ring.count >= cfg_.queue_capacity ||     // submitters may block
         !options_compatible(sl.opt, lead.opt) ||  // option boundary
         (sl.cls == request_class::interactive &&  // cuts a bulk linger
          lead.cls == request_class::bulk) ||
         sl.deadline != clock::time_point::max();  // may pull the flush in
}

void aligner::fail_dequeued_locked(std::uint32_t idx, std::exception_ptr e) {
  slot& sl = slots_[idx];
  stripe().failed[static_cast<std::size_t>(sl.cls)].fetch_add(
      1, std::memory_order_release);
  std::unique_lock lock(sl.m);
  sl.error = std::move(e);
  sl.st = slot_state::failed;
  if (sl.abandoned) {
    sl.st = slot_state::free_slot;
    sl.error = nullptr;
    lock.unlock();
    free_.push_back(idx);  // mu_ is held by contract
    space_cv_.notify_one();
    return;
  }
  lock.unlock();
  sl.cv.notify_all();
}

void aligner::fail_expired_locked(std::uint32_t idx) {
  slot& sl = slots_[idx];
  deadline_expired_[static_cast<std::size_t>(sl.cls)].fetch_add(
      1, std::memory_order_relaxed);
  ANYSEQ_TRACE_MARK(deadline_shed, idx, 0);
  fail_dequeued_locked(
      idx, std::make_exception_ptr(deadline_error(
               "service: deadline expired before execution started")));
}

void aligner::release_slot(std::uint32_t idx) {
  {
    std::lock_guard lock(mu_);
    free_.push_back(idx);
  }
  space_cv_.notify_one();
}

bool aligner::take_token(std::uint32_t tenant, clock::time_point now) {
  token_bucket& b = buckets_[tenant];
  const double burst = cfg_.tenant_burst > 0.0
                           ? cfg_.tenant_burst
                           : std::max(1.0, cfg_.tenant_rate);
  if (!b.init) {
    b.tokens = burst;  // a fresh tenant starts with a full bucket
    b.last = now;
    b.init = true;
  }
  const double dt = std::chrono::duration<double>(now - b.last).count();
  b.last = now;
  b.tokens = std::min(burst, b.tokens + dt * cfg_.tenant_rate);
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  return false;
}

clock::time_point aligner::skewed_now() {
  // Deadline arithmetic goes through here so the clock_skew fault can
  // lie to it; disarmed this is clock::now() plus one predicted branch.
  return clock::now() + std::chrono::nanoseconds(ANYSEQ_FAULT_CLOCK_SKEW_NS());
}

void aligner::note_exec(route rt, const char* variant, std::uint64_t requests,
                        std::uint64_t cells, std::uint64_t ns) noexcept {
  const auto r = static_cast<std::size_t>(rt);
  if (r >= n_exec_routes) return;  // defensive; route has three values
  const std::size_t v = exec_variant_index(variant);
  exec_requests_[r][v].fetch_add(requests, std::memory_order_relaxed);
  exec_cells_[r][v].fetch_add(cells, std::memory_order_relaxed);
  exec_ns_[r][v].fetch_add(ns, std::memory_order_relaxed);
}

void aligner::record_offender(std::uint64_t fp) noexcept {
  if (cfg_.quarantine_capacity == 0) return;
  const std::uint32_t thr = cfg_.quarantine_threshold;
  std::lock_guard lock(q_mu_);
  for (q_entry& e : q_entries_) {
    if (e.offenses > 0 && e.fp == fp) {
      if (e.offenses < thr && ++e.offenses >= thr)
        q_active_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // New offender: round-robin over non-quarantined entries.  When every
  // entry is a confirmed offender the record is dropped — forgetting a
  // first offense is safer than evicting a known repeat offender.
  for (std::size_t tries = 0; tries < q_entries_.size(); ++tries) {
    q_entry& e = q_entries_[q_clock_];
    q_clock_ = (q_clock_ + 1) % q_entries_.size();
    if (e.offenses < thr) {
      e.fp = fp;
      e.offenses = 1;
      if (e.offenses >= thr)
        q_active_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

bool aligner::is_quarantined(std::uint64_t fp) const noexcept {
  std::lock_guard lock(q_mu_);
  for (const q_entry& e : q_entries_)
    if (e.offenses >= cfg_.quarantine_threshold && e.fp == fp) return true;
  return false;
}

ticket aligner::submit(stage::seq_view q, stage::seq_view s,
                       const align_options& opt, const submit_options& so) {
  return submit_impl(q, s, {}, {}, /*copy_strings=*/false, opt, so);
}

ticket aligner::submit_strings(std::string_view q, std::string_view s,
                               const align_options& opt,
                               const submit_options& so) {
  return submit_impl({}, {}, q, s, /*copy_strings=*/true, opt, so);
}

aligner::intake aligner::screen(stage::seq_view q, stage::seq_view s,
                                const align_options& opt,
                                const submit_options& so,
                                alignment_result& out, std::uint32_t id,
                                std::uint64_t& key) {
  // The one key hash of this request: the quarantine fingerprint, the
  // cache slot of this probe and of the insert at completion, and the
  // fault-poison fingerprint.
  key = cache_key_hash(q, s, opt);
  // Repeat-offender quarantine: one relaxed load on the happy path.
  if (cfg_.quarantine_capacity > 0 &&
      q_active_.load(std::memory_order_relaxed) > 0 && is_quarantined(key)) {
    quarantined_[static_cast<std::size_t>(so.cls)].fetch_add(
        1, std::memory_order_relaxed);
    ANYSEQ_TRACE_MARK(quarantine, id, 0);
    return intake::quarantined;
  }
  if (so.deadline != clock::time_point::max() && skewed_now() >= so.deadline)
    return intake::expired;
  if (cache_ == nullptr) return intake::miss;
  const std::int64_t tr_probe = ANYSEQ_TRACE_NOW();
  const bool hit = cache_->lookup(q, s, opt, key, out);
  ANYSEQ_TRACE_EMIT(cache_probe, id, tr_probe, hit ? 1 : 0);
  return hit ? intake::hit : intake::miss;
}

aligner::counter_stripe& aligner::stripe() noexcept {
  std::uint32_t i = t_stripe;
  if (i == no_stripe) [[unlikely]] {
    i = next_stripe.fetch_add(1, std::memory_order_relaxed) % counter_stripes;
    t_stripe = i;
  }
  return stripes_[i];
}

void aligner::count_hit(std::size_t ci, clock::time_point t_submit) noexcept {
  counter_stripe& st = stripe();
  st.cache_hits[ci].fetch_add(1, std::memory_order_relaxed);
  st.accepted[ci].fetch_add(1, std::memory_order_relaxed);
  st.completed[ci].fetch_add(1, std::memory_order_release);
  st.hist[ci].record(ns_between(t_submit, clock::now()));
}

ticket aligner::submit_impl(stage::seq_view q, stage::seq_view s,
                            std::string_view q_chars,
                            std::string_view s_chars, bool copy_strings,
                            const align_options& opt,
                            const submit_options& so) {
  // Span open: one relaxed load when tracing is disarmed (t0 stays 0 and
  // every matching emit below is then a no-op).
  const std::int64_t tr_submit = ANYSEQ_TRACE_NOW();
  validate(opt);  // same synchronous contract as anyseq::align
  if (copy_strings)
    validate_shape(static_cast<index_t>(q_chars.size()),
                   static_cast<index_t>(s_chars.size()), opt);
  else
    validate_shape(q.size(), s.size(), opt);
  const auto ci = static_cast<std::size_t>(so.cls);
  if (ci >= n_cls)
    throw invalid_argument_error("service: invalid request_class");
  if (cfg_.tenant_rate > 0.0 && so.tenant >= cfg_.max_tenants)
    throw invalid_argument_error(
        "service: tenant id must be < config::max_tenants");
  if (!accepting_.load(std::memory_order_acquire))
    throw shutdown_error("service: submit after shutdown");
  const char* const quarantined_msg =
      "service: request quarantined after repeated isolated failures";

  // A score-only view submission is screened before it takes a slot, so
  // a cache hit whose result fits a ticket is a value: no slot, no mu_,
  // no slot mutex, no condition variable.  Cache hits are not charged
  // against the tenant's quota (quotas meter *work*).  Every other
  // submission is screened on the slot it fills: submit_strings has its
  // views only once the slot holds the encoded copies, and a traceback
  // hit copies its strings into the slot's recycled buffers.
  const bool screen_first = !copy_strings && !opt.want_alignment;
  intake in = intake::miss;
  alignment_result found;
  clock::time_point t_submit{};
  std::uint64_t key = 0;
  if (screen_first) {
    t_submit = clock::now();
    in = screen(q, s, opt, so, found, trace::no_slot, key);
    if (in == intake::quarantined) throw quarantine_error(quarantined_msg);
    if (in == intake::hit) {
      ticket value = ticket::value_of(found);
      if (value.valid()) {
        count_hit(ci, t_submit);
        ANYSEQ_TRACE_EMIT(submit, trace::no_slot, tr_submit, 1);
        return value;
      }
    }
  }

  std::uint32_t idx;
  {
    std::unique_lock lock(mu_);
    for (;;) {
      if (!accepting_)
        throw shutdown_error("service: submit after shutdown");
      if (!free_.empty()) break;
      // Slot exhaustion means tickets are not being retrieved; shedding
      // a queued request cannot free a slot, so only block can wait.
      if (cfg_.policy != backpressure::block) {
        rejected_[ci].fetch_add(1, std::memory_order_relaxed);
        throw queue_full_error(
            "service: all max_outstanding tickets are unretrieved");
      }
      space_cv_.wait(lock, [&] { return !free_.empty() || !accepting_; });
    }
    idx = free_.back();
    free_.pop_back();
  }

  // A popped free slot is owned by this thread alone, so it is filled
  // (including the possibly large string encode) without holding mu_ —
  // producers must not serialize each other or stall the batcher on a
  // memcpy-scale loop.  The ring_push below under mu_ is the release
  // point that publishes these writes to the batcher.
  slot& sl = slots_[idx];
  const auto return_slot = [&] {
    sl.st = slot_state::free_slot;
    std::lock_guard lock(mu_);
    free_.push_back(idx);
    space_cv_.notify_one();
  };
  ++sl.gen;
  sl.abandoned = false;
  sl.st = slot_state::queued;
  if (copy_strings) {
    try {
      sl.q_store.resize(q_chars.size());
      sl.s_store.resize(s_chars.size());
    } catch (...) {
      return_slot();
      throw;
    }
    for (std::size_t i = 0; i < q_chars.size(); ++i)
      sl.q_store[i] = dna_encode(q_chars[i]);
    for (std::size_t i = 0; i < s_chars.size(); ++i)
      sl.s_store[i] = dna_encode(s_chars[i]);
    sl.q = stage::seq_view(sl.q_store.data(),
                           static_cast<index_t>(sl.q_store.size()));
    sl.s = stage::seq_view(sl.s_store.data(),
                           static_cast<index_t>(sl.s_store.size()));
  } else {
    sl.q = q;
    sl.s = s;
  }
  sl.opt = opt;
  sl.cls = so.cls;
  sl.tenant = so.tenant;
  sl.result = {};
  sl.error = nullptr;
  sl.t_submit = screen_first ? t_submit : clock::now();
  sl.deadline = so.deadline;
  sl.key_hash = key;
  const std::uint64_t gen = sl.gen;

  if (!screen_first) {
    // The slot returns to the freelist, so a refusal consumed nothing.
    in = screen(sl.q, sl.s, sl.opt, so, sl.result, idx, sl.key_hash);
    if (in == intake::quarantined) {
      return_slot();
      throw quarantine_error(quarantined_msg);
    }
  } else if (in == intake::hit) {
    sl.result = std::move(found);  // a hit too wide for a value ticket
  }

  // Deadline shed point #1: already expired at submit.  The ticket is
  // still returned — it fails with deadline_error on get() — but the
  // request never enters the admission ring.
  if (in == intake::expired) {
    stripe().accepted[ci].fetch_add(1, std::memory_order_relaxed);
    deadline_expired_[ci].fetch_add(1, std::memory_order_relaxed);
    complete(idx, {},
             std::make_exception_ptr(deadline_error(
                 "service: deadline already expired at submit")));
    ANYSEQ_TRACE_EMIT(submit, idx, tr_submit, 0);
    return ticket(this, idx, gen);
  }

  // Cache front: a hit completes the ticket on the spot — it never
  // enters the admission ring and never wakes the batcher.
  if (in == intake::hit) {
    {
      std::lock_guard slock(sl.m);
      sl.st = slot_state::done;
    }
    count_hit(ci, sl.t_submit);
    ANYSEQ_TRACE_EMIT(submit, idx, tr_submit, 1);
    return ticket(this, idx, gen);
  }
  if (cache_ != nullptr)
    stripe().cache_misses.fetch_add(1, std::memory_order_relaxed);

  bool wake;
  {
    std::unique_lock lock(mu_);
    admission_ring& ring = ring_of(so.cls);
    for (;;) {
      if (!accepting_) {  // shutdown raced the fill: never publish
        sl.st = slot_state::free_slot;
        free_.push_back(idx);
        space_cv_.notify_one();
        throw shutdown_error("service: submit after shutdown");
      }
      if (ring.count < cfg_.queue_capacity) break;  // room to enqueue
      switch (cfg_.policy) {
        case backpressure::reject:
          rejected_[ci].fetch_add(1, std::memory_order_relaxed);
          sl.st = slot_state::free_slot;
          free_.push_back(idx);
          space_cv_.notify_one();
          throw queue_full_error("service: admission queue is full");
        case backpressure::shed_oldest: {
          // Shed within the same class: dropping a bulk request cannot
          // make interactive room and vice versa.
          const std::uint32_t victim = ring_pop(ring);
          shed_[ci].fetch_add(1, std::memory_order_relaxed);
          ANYSEQ_TRACE_MARK(shed, victim, 0);
          fail_dequeued_locked(
              victim, std::make_exception_ptr(shed_error(
                          "service: request shed by shed_oldest to admit "
                          "newer traffic")));
          continue;
        }
        case backpressure::block:
          space_cv_.wait(lock, [&] {
            return ring.count < cfg_.queue_capacity || !accepting_;
          });
          continue;
      }
    }
    // Quota is drawn once, after a queue position is certain — a tenant
    // blocked on backpressure keeps accruing refill, and a drained
    // bucket always *rejects* (typed), never blocks.
    if (!buckets_.empty() && !take_token(sl.tenant, clock::now())) {
      quota_rejected_[ci].fetch_add(1, std::memory_order_relaxed);
      sl.st = slot_state::free_slot;
      free_.push_back(idx);
      space_cv_.notify_one();
      throw quota_error("service: tenant quota exhausted");
    }
    // Count before publishing: the completion the batcher counts later
    // releases this count to a scrape (see stats()).
    stripe().accepted[ci].fetch_add(1, std::memory_order_relaxed);
    sl.t_queued_ns = ANYSEQ_TRACE_NOW();  // ring_wait span opens here
    ring_push(ring, idx);
    wake = wakes_batcher_locked(sl, ring);
  }

  if (wake) batcher_cv_.notify_one();
  ANYSEQ_TRACE_EMIT(submit, idx, tr_submit, 0);
  return ticket(this, idx, gen);
}

// ---------------------------------------------------------------------
// Batching and execution
// ---------------------------------------------------------------------

void aligner::batcher_loop() {
#ifdef __linux__
  // The linger is a timed wait that arrivals mostly no longer cut short:
  // without this the kernel may fire it up to the default 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  next_adapt_ = clock::now();
  for (;;) {
    try {
      if (!batcher_iteration()) return;
    } catch (...) {
      // Contain, never die: the requests this iteration had collected
      // but not dispatched fail typed, and the loop carries on serving
      // the rings.
      {
        std::lock_guard lock(mu_);
        linger_lead_ = no_linger;  // every arrival wakes it again
        const auto e = std::make_exception_ptr(service_down_error(
            "service: batcher failed while collecting this batch"));
        for (const std::uint32_t idx : batch_) fail_dequeued_locked(idx, e);
        batch_.clear();
      }
      space_cv_.notify_all();
    }
  }
}

bool aligner::batcher_iteration() {
  std::vector<std::uint32_t>& batch = batch_;
  std::unique_lock lock(mu_);
  batcher_cv_.wait(lock, [&] { return stopping_ || queued_total() > 0; });
  if (queued_total() == 0) return !stopping_;
  const std::int64_t tr_collect = ANYSEQ_TRACE_NOW();

  // Strict priority: interactive is served whenever anything is
  // waiting there; bulk fills the machine otherwise.
  const request_class cls = ring_of(request_class::interactive).count > 0
                                ? request_class::interactive
                                : request_class::bulk;
  admission_ring& ring = ring_of(cls);
  const bool serving_bulk = cls == request_class::bulk;

  batch.clear();
  // Deadline shed point #2: expired requests are dropped as the ring
  // drains — an expired lead must not anchor (and thus delay) a batch.
  std::uint32_t first;
  for (;;) {
    if (ring.count == 0) {
      space_cv_.notify_all();
      return true;  // everything queued here had expired
    }
    first = ring_pop(ring);
    const slot& fs = slots_[first];
    if (fs.deadline != clock::time_point::max() &&
        skewed_now() >= fs.deadline) {
      fail_expired_locked(first);
      continue;
    }
    break;
  }
  batch.push_back(first);
  const slot& lead = slots_[first];
  auto earliest_deadline = lead.deadline;
  const auto linger_deadline =
      clock::now() + std::chrono::nanoseconds(
                         linger_ns_.load(std::memory_order_relaxed));
  space_cv_.notify_all();  // the pop freed admission room
  for (;;) {
    const std::size_t taken = ring_extract_compatible(
        ring, lead, batch, cfg_.max_batch - batch.size(), skewed_now(),
        earliest_deadline);
    // Wake blocked submitters *before* lingering — the batcher may now
    // park for a full linger, and the room just freed must be usable
    // immediately.
    if (taken > 0) space_cv_.notify_all();
    if (batch.size() >= cfg_.max_batch) break;  // flush: batch full
    // Option-compatibility boundary: only incompatible requests remain
    // queued in this class — dispatch now so the next option class is
    // not held up.
    if (ring.count > 0) break;
    // An interactive arrival cuts a lingering bulk batch short: flush
    // what we have so the priority queue is served next iteration.
    if (serving_bulk && ring_of(request_class::interactive).count > 0)
      break;
    if (stopping_) break;  // flush: shutting down
    // Linger is bounded by the earliest member deadline minus headroom:
    // a batch that lingered *to* the deadline could only be shed at
    // collection, so it flushes early enough to still execute in time.
    auto wake = linger_deadline;
    if (earliest_deadline != clock::time_point::max()) {
      const auto cutoff = earliest_deadline - cfg_.deadline_headroom;
      if (cutoff < wake) wake = cutoff;
    }
    if (clock::now() >= wake) break;  // flush: linger over
    // Arrivals that cannot change this batch's fate do not wake us (see
    // wakes_batcher_locked); they wait in the ring, and the walk after a
    // wake-up or the timeout takes them before the checks above flush.
    linger_lead_ = first;
    linger_room_ = cfg_.max_batch - batch.size();
    batcher_cv_.wait_until(lock, wake);
    linger_lead_ = no_linger;
  }

  const std::int64_t tr_ws = ANYSEQ_TRACE_NOW();
  inflight_cv_.wait(lock, [&] { return !free_ws_.empty(); });
  ANYSEQ_TRACE_EMIT(workspace_wait, 0, tr_ws, 0);
  // Deadline shed point #3: batch dispatch.  Deadlines that passed while
  // the batch formed or while it was parked waiting for a workspace (or
  // that a skewed clock now reports passed) are shed; execution is
  // reserved for requests that can still win.  This runs after the
  // workspace wait on purpose — a batch parked behind a slow neighbour
  // is exactly where deadlines die.
  {
    const auto now = skewed_now();
    std::size_t kept = 0;
    const std::size_t had = batch.size();
    for (std::size_t i = 0; i < had; ++i) {
      const slot& sl = slots_[batch[i]];
      if (sl.deadline != clock::time_point::max() && now >= sl.deadline)
        fail_expired_locked(batch[i]);
      else
        batch[kept++] = batch[i];
    }
    if (kept < had) {
      batch.resize(kept);
      space_cv_.notify_all();
    }
    if (batch.empty()) return true;
  }

  const std::uint32_t w = free_ws_.back();
  exec_unit& ws = exec_units_[w];
  // Close each member's ring_wait span (opened at its ring_push) and
  // the batcher's collect span; both are no-ops while disarmed.
  for (const std::uint32_t idx : batch)
    ANYSEQ_TRACE_EMIT(ring_wait, idx, slots_[idx].t_queued_ns, 0);
  ANYSEQ_TRACE_EMIT(batch_collect, w, tr_collect,
                    static_cast<std::int64_t>(batch.size()));
  ws.items.assign(batch.begin(), batch.end());  // reserved: cannot throw
  // A small batch runs here: its kernel costs less than waking a pool
  // worker and waking this thread again on completion.  The requests
  // still queued wait for it, so the bound covers them too: it caps how
  // long an inline batch holds up the shard's backlog, and a loaded
  // shard sends its batches to the pool to run side by side.
  std::uint64_t cells = queued_cells();
  for (const std::uint32_t idx : batch) cells += cells_of(idx);
  const bool run_here = cells <= inline_cell_bound;
  // From here nothing throws until the hand-off, whose failure is
  // handled in place: the batch is dispatched, no longer the loop's to
  // fail.
  free_ws_.pop_back();
  ++inflight_;
  batch.clear();
  lock.unlock();

  // The batch is counted at dispatch, before its tickets complete, so a
  // caller that has every result sees it in stats().  inline_batches_
  // is bumped after batches_ with release, and stats() loads it first
  // with acquire, so a live scrape never reads more inline batches than
  // batches.
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(ws.items.size(), std::memory_order_relaxed);
  if (run_here) {
    inline_batches_.fetch_add(1, std::memory_order_release);
    execute(w);
  } else {
    try {
      // The pool's job ring grows to the peak backlog and that growth
      // can fail; the hand-off then throws before anything was enqueued.
      if (ANYSEQ_FAULT_POINT(dispatch_failure)) throw std::bad_alloc();
      pool_->run([this, w] { execute(w); });
    } catch (...) {
      // The batch runs here instead: it completes, and inflight_ drops
      // back, either way.
      inline_batches_.fetch_add(1, std::memory_order_release);
      execute(w);
    }
  }
  // Controller state is the batcher's alone; the histogram and counters
  // it reads are atomics.
  if (cfg_.adaptive_linger) adapt_linger(clock::now());
  return true;
}

void aligner::adapt_linger(clock::time_point now) {
  if (now < next_adapt_) return;
  next_adapt_ = now + std::chrono::milliseconds(5);

  // Interactive p99 over the window since the last tick: the bucket-wise
  // delta between the class histogram now and the copy the last tick
  // kept.  A lifetime p99 would hold a shrunk linger down long after a
  // slow stretch ends.  Both copies are fixed arrays: no allocation.
  histogram_snapshot h;
  for (const counter_stripe& st : stripes_)
    st.hist[static_cast<std::size_t>(request_class::interactive)].add_to(h);
  h.subtract(adapt_last_hist_);  // the window
  adapt_last_hist_.merge(h);     // = the histogram now, the next base
  const std::uint64_t p99 = h.quantile_ns(99, 100);
  const auto target =
      static_cast<std::uint64_t>(to_ns(cfg_.interactive_p99_target));
  const std::int64_t lo = to_ns(cfg_.min_linger);
  const std::int64_t hi = to_ns(cfg_.max_linger);
  std::int64_t cur = linger_ns_.load(std::memory_order_relaxed);
  const std::int64_t prev = cur;

  // Batch occupancy over the window since the last adaptation tick.
  const std::uint64_t b = batches_.load(std::memory_order_relaxed);
  const std::uint64_t br = batched_requests_.load(std::memory_order_relaxed);
  const std::uint64_t db = b - adapt_last_batches_;
  const std::uint64_t dbr = br - adapt_last_batched_requests_;
  adapt_last_batches_ = b;
  adapt_last_batched_requests_ = br;
  const double occupancy =
      db > 0 ? static_cast<double>(dbr) / static_cast<double>(db)
             : static_cast<double>(cfg_.max_batch);

  if (h.count > 0 && p99 > target) {
    // Tail above target: shrink multiplicatively so the controller
    // converges in a handful of ticks even from max_linger.
    cur = std::max(lo, cur - std::max<std::int64_t>(cur / 4, 1000));
  } else if (occupancy < 0.5 * static_cast<double>(cfg_.max_batch) &&
             (h.count == 0 || p99 * 2 <= target)) {
    // Comfortable tail but under-full batches: more linger buys
    // occupancy.  The target/2 band leaves hysteresis so the linger
    // does not oscillate around the threshold.
    cur = std::min(hi, cur + std::max<std::int64_t>(cur / 4, 1000));
  }
  linger_ns_.store(cur, std::memory_order_relaxed);
  if (cur != prev) ANYSEQ_TRACE_MARK(linger_adapt, 0, cur);
}

void aligner::complete(std::uint32_t idx, alignment_result&& r,
                       std::exception_ptr e) noexcept {
  const std::int64_t tr_complete = ANYSEQ_TRACE_NOW();
  const bool with_error = e != nullptr;  // e is moved into the slot below
  slot& sl = slots_[idx];
  const auto ci = static_cast<std::size_t>(sl.cls);
  // Successful results feed the cache before delivery; the insert copies
  // into entry-owned recycled buffers, so moving `r` below is safe.  No
  // service lock is held here — the cache's shard locks are leaves.  An
  // insert that fails (its copies allocate) leaves no entry behind, so
  // the result is simply delivered uncached: a caller of complete()
  // that saw it throw would re-deliver members it had already completed.
  if (e == nullptr && cache_ != nullptr) {
    try {
      cache_->insert(sl.q, sl.s, sl.opt, sl.key_hash, r);
    } catch (...) {
    }
  }
  const std::uint64_t lat = ns_between(sl.t_submit, clock::now());
  counter_stripe& st = stripe();
  bool recycle = false;
  {
    std::lock_guard lock(sl.m);
    if (e) {
      sl.error = std::move(e);
      sl.st = slot_state::failed;
      st.failed[ci].fetch_add(1, std::memory_order_release);
    } else {
      sl.result = std::move(r);
      sl.st = slot_state::done;
      st.completed[ci].fetch_add(1, std::memory_order_release);
      st.hist[ci].record(lat);
    }
    if (sl.abandoned) {
      sl.st = slot_state::free_slot;
      sl.result = {};
      sl.error = nullptr;
      recycle = true;
    }
  }
  if (recycle)
    release_slot(idx);
  else
    sl.cv.notify_all();
  ANYSEQ_TRACE_EMIT(complete, idx, tr_complete, with_error ? 1 : 0);
}

void aligner::execute(std::uint32_t ws_index) {
  exec_unit& ws = exec_units_[ws_index];

  // Group similar sizes so the inter-sequence SIMD kernel sees
  // uniform-length chunks; per-slot delivery makes order irrelevant.
  std::sort(ws.items.begin(), ws.items.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const slot& x = slots_[a];
              const slot& y = slots_[b];
              return lane_order_less(x.q.size(), x.s.size(), a, y.q.size(),
                                     y.s.size(), b);
            });

  // Execution goes through this unit's reusable aligner: same route
  // selection as the synchronous API (so results stay byte-identical),
  // but every DP buffer comes from the unit's warm workspace arena.
  // run_span contains failures by bisection, so one poisoned request
  // can never fail its whole batch.
  const std::int64_t tr_exec = ANYSEQ_TRACE_NOW();
  run_span(ws, 0, ws.items.size());
  ANYSEQ_TRACE_EMIT(kernel_execute, ws_index, tr_exec,
                    static_cast<std::int64_t>(ws.items.size()));

  {
    std::lock_guard lock(mu_);
    --inflight_;
    free_ws_.push_back(ws_index);
    // Notify under the lock: this broadcast is the last thing a pool
    // worker does with service state, and shutdown destroys the service
    // as soon as it observes inflight_ == 0 — an unlocked notify could
    // still be touching the condvar when the destructor frees it.
    inflight_cv_.notify_all();
  }
}

void aligner::run_span(exec_unit& ws, std::size_t lo, std::size_t hi) {
  const slot& lead = slots_[ws.items[lo]];
  const route rt = classify(lead.opt);
  if (hi - lo == 1) {
    // A lone request runs solo; its failure is already its own ticket's.
    run_solo(ws, ws.items[lo]);
    return;
  }
  try {
    // Fault hooks: a span-level allocation failure (transient — the
    // halves retry and succeed) and per-request kernel poison (sticky —
    // bisection walks it down to the solo culprit).  Fingerprints are
    // only read while a schedule is armed.
    if (ANYSEQ_FAULT_POINT(alloc_failure)) throw std::bad_alloc();
    if (ANYSEQ_FAULT_HOOKS && fault::armed() != nullptr) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (fault::armed()->poisoned(slots_[ws.items[i]].key_hash))
          throw fault::injected_fault(
              "service: injected kernel exception (batched)");
      }
    }
    ANYSEQ_FAULT_HOLD();
    ws.pairs.clear();
    for (std::size_t i = lo; i < hi; ++i)
      ws.pairs.push_back({slots_[ws.items[i]].q, slots_[ws.items[i]].s});
    ws.eng.set_options(lead.opt);
    const auto eng_t0 = clock::now();
    ws.eng.align_batch_into(ws.pairs, ws.results);
    const std::uint64_t eng_ns = ns_between(eng_t0, clock::now());
    std::uint64_t cells = 0;
    for (std::size_t k = 0; k < hi - lo; ++k) cells += ws.results[k].cells;
    // One batch call = one option set = one dispatched variant; the
    // lead result's stamp names it for the whole span.
    note_exec(rt, ws.results.empty() ? nullptr : ws.results[0].variant,
              hi - lo, cells, eng_ns);
    // Each batch route fills only its own fields (score paths or band
    // doubling), so the sums need no route switch.
    const batch_stats bst = ws.eng.last_batch_stats();
    batch_simd_pairs_.fetch_add(bst.simd_pairs, std::memory_order_relaxed);
    batch_scalar_pairs_.fetch_add(bst.scalar_pairs, std::memory_order_relaxed);
    batch_ragged_pairs_.fetch_add(bst.ragged_pairs, std::memory_order_relaxed);
    batch_striped_pairs_.fetch_add(bst.striped_pairs,
                                   std::memory_order_relaxed);
    batch_padded_cells_.fetch_add(bst.padded_cells, std::memory_order_relaxed);
    batch_banded_pairs_.fetch_add(bst.banded_pairs, std::memory_order_relaxed);
    batch_band_passes_.fetch_add(bst.band_passes, std::memory_order_relaxed);
    ANYSEQ_TRACE_EMIT(exec_batch, ws.items[lo], epoch_ns(eng_t0),
                      static_cast<std::int64_t>(hi - lo));
    for (std::size_t k = 0; k < hi - lo; ++k)
      complete(ws.items[lo + k], std::move(ws.results[k]), nullptr);
  } catch (...) {
    // Containment by bisection: something in [lo, hi) threw before any
    // member completed.  Split and retry each half — innocents
    // re-execute and succeed byte-identically (batch-route results are
    // independent of batch composition), the culprit is isolated solo
    // within log2(max_batch) rounds and only its ticket fails.
    const std::size_t mid = lo + (hi - lo) / 2;
    run_span(ws, lo, mid);
    run_span(ws, mid, hi);
  }
}

void aligner::run_solo(exec_unit& ws, std::uint32_t idx) {
  slot& sl = slots_[idx];
  // The failure is published only after the catch handler has exited:
  // completing from *inside* the handler would share the still-in-
  // flight exception object with the getter thread, and the handler's
  // exit could then run the final destructor concurrently with the
  // getter reading what() (libstdc++'s refcount is atomic but opaque
  // to TSan).  Capturing into a local exception_ptr first keeps every
  // release of the getter-visible reference on lock-ordered paths.
  std::exception_ptr err;
  try {
    if (ANYSEQ_FAULT_HOOKS && fault::armed() != nullptr &&
        fault::armed()->poisoned(sl.key_hash))
      throw fault::injected_fault("service: injected kernel exception");
    ANYSEQ_FAULT_HOLD();
    ws.eng.set_options(sl.opt);
    const auto eng_t0 = clock::now();
    ws.eng.align_into(sl.q, sl.s, ws.scratch);
    const std::uint64_t eng_ns = ns_between(eng_t0, clock::now());
    // Accounted under the route that *executed* — a batch-route request
    // isolated by bisection lands in the solo column, which is the
    // truth a GCUPS dashboard wants.
    note_exec(route::solo, ws.scratch.variant, 1, ws.scratch.cells, eng_ns);
    // A solo full-matrix traceback reports its band doubling like a
    // traceback batch does; other routes report zeros.
    const batch_stats bst = ws.eng.last_batch_stats();
    batch_banded_pairs_.fetch_add(bst.banded_pairs, std::memory_order_relaxed);
    batch_band_passes_.fetch_add(bst.band_passes, std::memory_order_relaxed);
    ANYSEQ_TRACE_EMIT(exec_solo, idx, epoch_ns(eng_t0), 1);
    complete(idx, std::move(ws.scratch), nullptr);
    return;
  } catch (...) {
    err = std::current_exception();
  }
  // The request failed *in isolation*: it is the culprit, not a
  // bystander — record the offense for the quarantine.
  record_offender(sl.key_hash);
  complete(idx, {}, std::move(err));
}

// ---------------------------------------------------------------------
// Shutdown and stats
// ---------------------------------------------------------------------

void aligner::shutdown(bool drain) {
  std::lock_guard shut_lock(shutdown_mu_);
  if (shut_down_) return;

  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    stopping_ = true;
    if (!drain) {
      const auto e = std::make_exception_ptr(
          shutdown_error("service: request failed by no-drain shutdown"));
      for (auto& r : rings_)
        while (r.count > 0) fail_dequeued_locked(ring_pop(r), e);
    }
  }
  batcher_cv_.notify_all();
  space_cv_.notify_all();  // blocked submitters observe the shutdown
  // The batcher exits only once stopping with empty rings: its join is
  // the drain.
  if (batcher_.joinable()) batcher_.join();

  std::unique_lock lock(mu_);
  inflight_cv_.wait(lock, [&] { return inflight_ == 0; });
  shut_down_ = true;
}

service_stats aligner::stats() const {
  service_stats out;
  // Completions and failures first, with acquire, then admissions.  A
  // request is counted accepted before it can complete or fail, and the
  // release of that completion carries the admission to this scrape, so
  // a live scrape never reads completed + failed > accepted.
  for (const counter_stripe& st : stripes_)
    for (std::size_t c = 0; c < n_cls; ++c) {
      out.per_class[c].completed +=
          st.completed[c].load(std::memory_order_acquire);
      out.per_class[c].failed += st.failed[c].load(std::memory_order_acquire);
    }
  for (const counter_stripe& st : stripes_) {
    for (std::size_t c = 0; c < n_cls; ++c) {
      class_stats& cs = out.per_class[c];
      cs.accepted += st.accepted[c].load(std::memory_order_relaxed);
      cs.cache_hits += st.cache_hits[c].load(std::memory_order_relaxed);
      st.hist[c].add_to(cs.latency_hist);
    }
    out.cache_misses += st.cache_misses.load(std::memory_order_relaxed);
  }
  for (std::size_t c = 0; c < n_cls; ++c) {
    class_stats& cs = out.per_class[c];
    cs.rejected = rejected_[c].load(std::memory_order_relaxed);
    cs.shed = shed_[c].load(std::memory_order_relaxed);
    cs.quota_rejected = quota_rejected_[c].load(std::memory_order_relaxed);
    cs.deadline_expired =
        deadline_expired_[c].load(std::memory_order_relaxed);
    cs.quarantined = quarantined_[c].load(std::memory_order_relaxed);
    out.accepted += cs.accepted;
    out.rejected += cs.rejected;
    out.shed += cs.shed;
    out.quota_rejected += cs.quota_rejected;
    out.completed += cs.completed;
    out.failed += cs.failed;
    out.cache_hits += cs.cache_hits;
    out.deadline_expired += cs.deadline_expired;
    out.quarantined += cs.quarantined;
  }
  // inline_batches first (see batcher_iteration), so it never exceeds
  // batches.
  out.inline_batches = inline_batches_.load(std::memory_order_acquire);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  out.batch_simd_pairs = batch_simd_pairs_.load(std::memory_order_relaxed);
  out.batch_scalar_pairs =
      batch_scalar_pairs_.load(std::memory_order_relaxed);
  out.batch_ragged_pairs =
      batch_ragged_pairs_.load(std::memory_order_relaxed);
  out.batch_striped_pairs =
      batch_striped_pairs_.load(std::memory_order_relaxed);
  out.batch_padded_cells =
      batch_padded_cells_.load(std::memory_order_relaxed);
  out.batch_banded_pairs =
      batch_banded_pairs_.load(std::memory_order_relaxed);
  out.batch_band_passes = batch_band_passes_.load(std::memory_order_relaxed);
  out.mean_batch_occupancy =
      out.batches > 0 ? static_cast<double>(out.batched_requests) /
                            static_cast<double>(out.batches)
                      : 0.0;
  fill_latency_percentiles(out);
  for (std::size_t r = 0; r < n_exec_routes; ++r)
    for (std::size_t v = 0; v < n_exec_variants; ++v) {
      exec_cell& e = out.exec.at[r][v];
      e.requests = exec_requests_[r][v].load(std::memory_order_relaxed);
      e.cells = exec_cells_[r][v].load(std::memory_order_relaxed);
      e.ns = exec_ns_[r][v].load(std::memory_order_relaxed);
    }
  // Evictions are a cache-global number: report them only for an owned
  // cache.  With a shared cache the router owns that figure — per-shard
  // copies would multi-count it in any merge.
  if (owned_cache_) out.cache_evictions = owned_cache_->stats().evictions;
  out.effective_linger_us = static_cast<std::uint64_t>(
      linger_ns_.load(std::memory_order_relaxed) / 1000);
  {
    std::lock_guard lock(mu_);
    out.queue_depth = queued_total();
    out.in_flight_batches = inflight_;
    out.outstanding_tickets = slots_.size() - free_.size();
  }
  return out;
}

std::size_t aligner::dump_metrics(char* buf, std::size_t cap) const {
  text_buffer out(buf, cap);
  render_prometheus(stats(), out);
  return out.needed();
}

}  // namespace anyseq::service
