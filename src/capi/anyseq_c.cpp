#include "capi/anyseq_c.h"

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>

#include "anyseq/anyseq.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/trace.hpp"

/// C-side service handle: a thin box around the sharded service group
/// (anyseq_service_create makes a 1-shard, cache-less group, so the
/// legacy entry point behaves exactly like the pre-sharding service).
struct anyseq_service {
  anyseq::service::service_group impl;
  explicit anyseq_service(anyseq::service::service_group::config cfg)
      : impl(cfg) {}
};

/// C-side reusable aligner: the C++ plan/execute handle plus recycled
/// encode buffers and a recycled result, so repeated score calls do not
/// allocate once warm.
struct anyseq_aligner {
  anyseq::aligner impl;
  std::vector<anyseq::char_t> qbuf, sbuf;  ///< reused DNA-encode storage
  anyseq::alignment_result out;            ///< reused result buffers
};

/// C-side ticket handle; consumed (and deleted) by wait/discard.
struct anyseq_ticket {
  anyseq::service::ticket impl;
  bool want_alignment = false;
};

static_assert(ANYSEQ_MAX_ABS_SCORE == anyseq::max_abs_score,
              "the C limit mirrors the C++ one");

// The service stats layout is a contract with compiled C clients: the
// retired fields keep their slots (always 0) so every appended field
// stays at the offset those clients read.
static_assert(sizeof(anyseq_service_stats) == 256,
              "anyseq_service_stats grows only by appending");
static_assert(offsetof(anyseq_service_stats, watchdog_restarts) == 192,
              "retired field keeps its slot");
static_assert(offsetof(anyseq_service_stats, brownout) == 200,
              "retired field keeps its slot");
static_assert(offsetof(anyseq_service_stats, p90_latency_ns) == 208,
              "the first appended field follows the retired ones");

namespace {

using anyseq::align_kind;
using anyseq::align_options;

/// Process-wide trace collector owned by the C API; armed by
/// anyseq_tracing_start, torn down by anyseq_tracing_stop.
std::unique_ptr<anyseq::service::trace::collector> g_capi_collector;

anyseq_score_t guarded(const char* q, const char* s,
                       const align_options& opt, char* q_out, char* s_out,
                       int64_t* q_begin, int64_t* s_begin) {
  if (q == nullptr || s == nullptr) return ANYSEQ_C_ERROR;
  try {
    const auto r = anyseq::align_strings(q, s, opt);
    if (opt.want_alignment) {
      if (q_out != nullptr) {
        std::memcpy(q_out, r.q_aligned.c_str(), r.q_aligned.size() + 1);
      }
      if (s_out != nullptr) {
        std::memcpy(s_out, r.s_aligned.c_str(), r.s_aligned.size() + 1);
      }
      if (q_begin != nullptr) *q_begin = r.q_begin;
      if (s_begin != nullptr) *s_begin = r.s_begin;
    }
    return r.score;
  } catch (const anyseq::error&) {
    return ANYSEQ_C_ERROR;
  }
}

}  // namespace

extern "C" {

anyseq_score_t anyseq_global_score(const char* query, const char* subject,
                                   anyseq_score_t match,
                                   anyseq_score_t mismatch,
                                   anyseq_score_t gap) {
  align_options opt;
  opt.kind = align_kind::global;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_extend = gap;
  return guarded(query, subject, opt, nullptr, nullptr, nullptr, nullptr);
}

anyseq_score_t anyseq_local_score(const char* query, const char* subject,
                                  anyseq_score_t match,
                                  anyseq_score_t mismatch,
                                  anyseq_score_t gap_open,
                                  anyseq_score_t gap_extend) {
  align_options opt;
  opt.kind = align_kind::local;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  return guarded(query, subject, opt, nullptr, nullptr, nullptr, nullptr);
}

anyseq_score_t anyseq_semiglobal_score(const char* query,
                                       const char* subject,
                                       anyseq_score_t match,
                                       anyseq_score_t mismatch,
                                       anyseq_score_t gap) {
  align_options opt;
  opt.kind = align_kind::semiglobal;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_extend = gap;
  return guarded(query, subject, opt, nullptr, nullptr, nullptr, nullptr);
}

anyseq_score_t anyseq_construct_global_alignment(const char* query,
                                                 const char* subject,
                                                 char* q_aligned,
                                                 char* s_aligned) {
  // The paper's stock parameterization: +2 match, -1 mismatch, -1 linear.
  align_options opt;
  opt.kind = align_kind::global;
  opt.want_alignment = true;
  return guarded(query, subject, opt, q_aligned, s_aligned, nullptr,
                 nullptr);
}

anyseq_score_t anyseq_construct_global_alignment_affine(
    const char* query, const char* subject, anyseq_score_t match,
    anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned) {
  align_options opt;
  opt.kind = align_kind::global;
  opt.want_alignment = true;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  return guarded(query, subject, opt, q_aligned, s_aligned, nullptr,
                 nullptr);
}

anyseq_score_t anyseq_construct_local_alignment(
    const char* query, const char* subject, anyseq_score_t match,
    anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned,
    int64_t* q_begin, int64_t* s_begin) {
  align_options opt;
  opt.kind = align_kind::local;
  opt.want_alignment = true;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  return guarded(query, subject, opt, q_aligned, s_aligned, q_begin,
                 s_begin);
}

anyseq_aligner* anyseq_aligner_create(void) {
  try {
    return new anyseq_aligner;
  } catch (...) {
    return nullptr;
  }
}

void anyseq_aligner_destroy(anyseq_aligner* a) { delete a; }

namespace {

/// Encode a C string into a reused code buffer; returns the view.
anyseq::stage::seq_view encode_into(const char* str,
                                    std::vector<anyseq::char_t>& buf) {
  const std::size_t len = std::strlen(str);
  buf.resize(len);
  for (std::size_t i = 0; i < len; ++i) buf[i] = anyseq::dna_encode(str[i]);
  return {buf.data(), static_cast<anyseq::index_t>(len)};
}

/// Shared body of the handle-based entry points.
anyseq_score_t aligner_guarded(anyseq_aligner* a, const char* q,
                               const char* s, const align_options& opt,
                               char* q_out, char* s_out) {
  if (a == nullptr || q == nullptr || s == nullptr) return ANYSEQ_C_ERROR;
  try {
    a->impl.set_options(opt);
    const auto qv = encode_into(q, a->qbuf);
    const auto sv = encode_into(s, a->sbuf);
    a->impl.align_into(qv, sv, a->out);
    if (opt.want_alignment) {
      if (q_out != nullptr) {
        std::memcpy(q_out, a->out.q_aligned.c_str(),
                    a->out.q_aligned.size() + 1);
      }
      if (s_out != nullptr) {
        std::memcpy(s_out, a->out.s_aligned.c_str(),
                    a->out.s_aligned.size() + 1);
      }
    }
    return a->out.score;
  } catch (const anyseq::error&) {
    return ANYSEQ_C_ERROR;
  }
}

}  // namespace

anyseq_score_t anyseq_aligner_global_score(anyseq_aligner* a,
                                           const char* query,
                                           const char* subject,
                                           anyseq_score_t match,
                                           anyseq_score_t mismatch,
                                           anyseq_score_t gap) {
  align_options opt;
  opt.kind = align_kind::global;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_extend = gap;
  return aligner_guarded(a, query, subject, opt, nullptr, nullptr);
}

anyseq_score_t anyseq_aligner_local_score(anyseq_aligner* a,
                                          const char* query,
                                          const char* subject,
                                          anyseq_score_t match,
                                          anyseq_score_t mismatch,
                                          anyseq_score_t gap_open,
                                          anyseq_score_t gap_extend) {
  align_options opt;
  opt.kind = align_kind::local;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  return aligner_guarded(a, query, subject, opt, nullptr, nullptr);
}

anyseq_score_t anyseq_aligner_semiglobal_score(anyseq_aligner* a,
                                               const char* query,
                                               const char* subject,
                                               anyseq_score_t match,
                                               anyseq_score_t mismatch,
                                               anyseq_score_t gap) {
  align_options opt;
  opt.kind = align_kind::semiglobal;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_extend = gap;
  return aligner_guarded(a, query, subject, opt, nullptr, nullptr);
}

anyseq_score_t anyseq_aligner_construct_global_alignment_affine(
    anyseq_aligner* a, const char* query, const char* subject,
    anyseq_score_t match, anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned) {
  align_options opt;
  opt.kind = align_kind::global;
  opt.want_alignment = true;
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  return aligner_guarded(a, query, subject, opt, q_aligned, s_aligned);
}

void anyseq_aligner_reserve(anyseq_aligner* a, int64_t query_len,
                            int64_t subject_len) {
  if (a == nullptr || query_len < 0 || subject_len < 0) return;
  try {
    align_options opt;  // global score-only: the documented reserve shape
    a->impl.set_options(opt);
    a->impl.reserve(static_cast<anyseq::index_t>(query_len),
                    static_cast<anyseq::index_t>(subject_len));
    a->qbuf.reserve(static_cast<std::size_t>(query_len));
    a->sbuf.reserve(static_cast<std::size_t>(subject_len));
  } catch (...) {
    // reserve is best-effort; the first call warms whatever is missing
  }
}

size_t anyseq_aligner_workspace_bytes(const anyseq_aligner* a) {
  if (a == nullptr) return 0;
  return a->impl.workspace_bytes() + a->qbuf.capacity() + a->sbuf.capacity();
}

void anyseq_aligner_shrink(anyseq_aligner* a) {
  if (a == nullptr) return;
  a->impl.shrink();
  a->qbuf = {};
  a->sbuf = {};
  a->out = {};
}

int anyseq_aligner_plan(anyseq_aligner* a, int64_t query_len,
                        int64_t subject_len, anyseq_score_t match,
                        anyseq_score_t mismatch, anyseq_score_t gap,
                        anyseq_plan* out) {
  if (a == nullptr || out == nullptr || query_len <= 0 || subject_len <= 0)
    return -1;
  try {
    align_options opt;
    opt.kind = align_kind::global;
    opt.match = match;
    opt.mismatch = mismatch;
    opt.gap_extend = gap;
    a->impl.set_options(opt);
    const auto p = a->impl.plan(static_cast<anyseq::index_t>(query_len),
                                static_cast<anyseq::index_t>(subject_len));
    out->variant = p.variant;
    out->route = p.route;
    out->precision = anyseq::to_string(p.precision);
    out->workspace_bytes = p.workspace_bytes;
    return 0;
  } catch (const anyseq::error&) {
    return -1;
  }
}

namespace {

anyseq_service* service_create_impl(int64_t max_batch, int64_t max_linger_us,
                                    int64_t queue_capacity, int policy,
                                    int64_t shards, int64_t cache_capacity,
                                    int adaptive_linger) {
  if (max_batch < 0 || max_linger_us < 0 || queue_capacity < 0 || shards < 0)
    return nullptr;
  if (policy < ANYSEQ_BACKPRESSURE_BLOCK ||
      policy > ANYSEQ_BACKPRESSURE_SHED_OLDEST)
    return nullptr;
  anyseq::service::service_group::config cfg;
  if (max_batch > 0)
    cfg.shard.max_batch = static_cast<std::size_t>(max_batch);
  if (max_linger_us > 0)
    cfg.shard.max_linger = std::chrono::microseconds(max_linger_us);
  if (queue_capacity > 0)
    cfg.shard.queue_capacity = static_cast<std::size_t>(queue_capacity);
  cfg.shard.policy = static_cast<anyseq::service::backpressure>(policy);
  cfg.shards = shards > 0 ? static_cast<std::size_t>(shards) : 1;
  cfg.cache_capacity =
      cache_capacity < 0 ? 4096 : static_cast<std::size_t>(cache_capacity);
  if (adaptive_linger != 0) {
    cfg.shard.adaptive_linger = true;
    cfg.shard.min_linger = cfg.shard.max_linger / 10;
    cfg.shard.interactive_p99_target = cfg.shard.max_linger * 10;
  }
  try {
    return new anyseq_service(cfg);
  } catch (...) {
    return nullptr;
  }
}

anyseq_ticket* service_submit_impl(
    anyseq_service* svc, const char* query, const char* subject,
    anyseq_align_kind kind, anyseq_score_t match, anyseq_score_t mismatch,
    anyseq_score_t gap_open, anyseq_score_t gap_extend, int want_alignment,
    const anyseq::service::submit_options& so) {
  if (svc == nullptr || query == nullptr || subject == nullptr)
    return nullptr;
  align_options opt;
  switch (kind) {
    case ANYSEQ_ALIGN_GLOBAL: opt.kind = align_kind::global; break;
    case ANYSEQ_ALIGN_LOCAL: opt.kind = align_kind::local; break;
    case ANYSEQ_ALIGN_SEMIGLOBAL: opt.kind = align_kind::semiglobal; break;
    default: return nullptr;
  }
  opt.match = match;
  opt.mismatch = mismatch;
  opt.gap_open = gap_open;
  opt.gap_extend = gap_extend;
  opt.want_alignment = want_alignment != 0;
  try {
    auto* out = new anyseq_ticket;
    out->want_alignment = opt.want_alignment;
    try {
      out->impl = svc->impl.submit_strings(query, subject, opt, so);
    } catch (...) {
      delete out;
      return nullptr;
    }
    return out;
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

anyseq_service* anyseq_service_create(int64_t max_batch,
                                      int64_t max_linger_us,
                                      int64_t queue_capacity, int policy) {
  // Legacy entry point: one shard, no cache, fixed linger.
  return service_create_impl(max_batch, max_linger_us, queue_capacity,
                             policy, /*shards=*/1, /*cache_capacity=*/0,
                             /*adaptive_linger=*/0);
}

anyseq_service* anyseq_service_create_ex(int64_t max_batch,
                                         int64_t max_linger_us,
                                         int64_t queue_capacity, int policy,
                                         int64_t shards,
                                         int64_t cache_capacity,
                                         int adaptive_linger) {
  return service_create_impl(max_batch, max_linger_us, queue_capacity,
                             policy, shards, cache_capacity,
                             adaptive_linger);
}

anyseq_ticket* anyseq_service_submit(anyseq_service* svc, const char* query,
                                     const char* subject,
                                     anyseq_align_kind kind,
                                     anyseq_score_t match,
                                     anyseq_score_t mismatch,
                                     anyseq_score_t gap_open,
                                     anyseq_score_t gap_extend,
                                     int want_alignment) {
  return service_submit_impl(svc, query, subject, kind, match, mismatch,
                             gap_open, gap_extend, want_alignment, {});
}

anyseq_ticket* anyseq_service_submit_ex(
    anyseq_service* svc, const char* query, const char* subject,
    anyseq_align_kind kind, anyseq_score_t match, anyseq_score_t mismatch,
    anyseq_score_t gap_open, anyseq_score_t gap_extend, int want_alignment,
    anyseq_request_class cls, int64_t tenant) {
  if (cls != ANYSEQ_CLASS_INTERACTIVE && cls != ANYSEQ_CLASS_BULK)
    return nullptr;
  if (tenant < 0) return nullptr;
  anyseq::service::submit_options so;
  so.cls = cls == ANYSEQ_CLASS_BULK
               ? anyseq::service::request_class::bulk
               : anyseq::service::request_class::interactive;
  so.tenant = static_cast<std::uint32_t>(tenant);
  return service_submit_impl(svc, query, subject, kind, match, mismatch,
                             gap_open, gap_extend, want_alignment, so);
}

anyseq_score_t anyseq_service_wait(anyseq_ticket* ticket, char* q_aligned,
                                   char* s_aligned) {
  if (ticket == nullptr) return ANYSEQ_C_ERROR;
  anyseq_score_t score = ANYSEQ_C_ERROR;
  try {
    const auto r = ticket->impl.get();
    if (ticket->want_alignment) {
      if (q_aligned != nullptr)
        std::memcpy(q_aligned, r.q_aligned.c_str(), r.q_aligned.size() + 1);
      if (s_aligned != nullptr)
        std::memcpy(s_aligned, r.s_aligned.c_str(), r.s_aligned.size() + 1);
    }
    score = r.score;
  } catch (...) {
    score = ANYSEQ_C_ERROR;
  }
  delete ticket;
  return score;
}

int anyseq_ticket_wait_for(const anyseq_ticket* ticket, int64_t timeout_us) {
  if (ticket == nullptr || timeout_us < 0) return -1;
  try {
    return ticket->impl.wait_for(std::chrono::microseconds(timeout_us))
               ? ANYSEQ_WAIT_READY
               : ANYSEQ_WAIT_TIMEOUT;
  } catch (...) {
    return -1;  // empty or stale ticket
  }
}

void anyseq_ticket_discard(anyseq_ticket* ticket) { delete ticket; }

int anyseq_service_get_stats(const anyseq_service* svc,
                             anyseq_service_stats* out) {
  if (svc == nullptr || out == nullptr) return -1;
  const auto s = svc->impl.stats();
  out->accepted = s.accepted;
  out->rejected = s.rejected;
  out->shed = s.shed;
  out->quota_rejected = s.quota_rejected;
  out->completed = s.completed;
  out->failed = s.failed;
  out->batches = s.batches;
  out->mean_batch_occupancy = s.mean_batch_occupancy;
  out->p50_latency_ns = s.p50_latency_ns;
  out->p99_latency_ns = s.p99_latency_ns;
  out->cache_hits = s.cache_hits;
  out->cache_misses = s.cache_misses;
  out->cache_evictions = s.cache_evictions;
  out->effective_linger_us = s.effective_linger_us;
  using anyseq::service::request_class;
  const auto& ia = s.of(request_class::interactive);
  const auto& bk = s.of(request_class::bulk);
  out->interactive_rejected = ia.rejected;
  out->interactive_shed = ia.shed;
  out->interactive_quota_rejected = ia.quota_rejected;
  out->interactive_p99_latency_ns = ia.p99_latency_ns;
  out->bulk_rejected = bk.rejected;
  out->bulk_shed = bk.shed;
  out->bulk_quota_rejected = bk.quota_rejected;
  out->bulk_p99_latency_ns = bk.p99_latency_ns;
  out->deadline_expired = s.deadline_expired;
  out->quarantined = s.quarantined;
  out->watchdog_restarts = 0;  // retired field: layout only
  out->brownout = 0;           // retired field: layout only
  out->p90_latency_ns = s.p90_latency_ns;
  out->p999_latency_ns = s.p999_latency_ns;
  out->interactive_p90_latency_ns = ia.p90_latency_ns;
  out->interactive_p999_latency_ns = ia.p999_latency_ns;
  out->bulk_p90_latency_ns = bk.p90_latency_ns;
  out->bulk_p999_latency_ns = bk.p999_latency_ns;
  return 0;
}

int64_t anyseq_service_dump_metrics(const anyseq_service* svc, char* buf,
                                    size_t cap) {
  if (svc == nullptr) return -1;
  return static_cast<int64_t>(svc->impl.dump_metrics(buf, cap));
}

int anyseq_tracing_start(int64_t events_per_thread) {
  if (g_capi_collector != nullptr) return -1;
  try {
    anyseq::service::trace::collector::config cfg;
    if (events_per_thread > 0)
      cfg.events_per_thread = static_cast<std::size_t>(events_per_thread);
    g_capi_collector =
        std::make_unique<anyseq::service::trace::collector>(cfg);
  } catch (...) {
    return -1;
  }
  anyseq::service::trace::arm(*g_capi_collector);
  return 0;
}

int anyseq_tracing_stop(void) {
  if (g_capi_collector == nullptr) return -1;
  anyseq::service::trace::disarm();
  g_capi_collector.reset();
  return 0;
}

int64_t anyseq_service_dump_trace(const anyseq_service* svc, char* buf,
                                  size_t cap) {
  if (svc == nullptr || g_capi_collector == nullptr) return -1;
  return static_cast<int64_t>(g_capi_collector->dump_chrome_json(buf, cap));
}

void anyseq_service_destroy(anyseq_service* svc) { delete svc; }

const char* anyseq_version(void) { return anyseq::version(); }

const char* anyseq_backend_name(void) {
  // auto_select never throws: it falls back to the widest safe variant.
  return anyseq::backend_name(align_options{});
}

}  // extern "C"
