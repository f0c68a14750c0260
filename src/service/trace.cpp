/// \file trace.cpp
/// Collector internals for the request-lifecycle tracer: lazy
/// generation-keyed thread->ring binding, single-writer ring stores, and
/// the Chrome trace-event JSON renderer.

#include "service/trace.hpp"

#include <chrono>

#include "service/metrics.hpp"

namespace anyseq::service::trace {

const char* to_string(span s) noexcept {
  switch (s) {
    case span::submit: return "submit";
    case span::cache_probe: return "cache_probe";
    case span::ring_wait: return "ring_wait";
    case span::batch_collect: return "batch_collect";
    case span::workspace_wait: return "workspace_wait";
    case span::kernel_execute: return "kernel_execute";
    case span::exec_batch: return "exec_batch";
    case span::exec_solo: return "exec_solo";
    case span::complete: return "complete";
  }
  return "unknown";
}

const char* to_string(instant i) noexcept {
  switch (i) {
    case instant::linger_adapt: return "linger_adapt";
    case instant::deadline_shed: return "deadline_shed";
    case instant::shed: return "shed";
    case instant::quarantine: return "quarantine";
  }
  return "unknown";
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Monotonic collector-construction counter: each collector gets a
/// distinct generation, and every thread's cached ring binding carries
/// the generation it was made under, so a thread that outlives one
/// collector re-binds cleanly on its first record into the next.
std::atomic<std::uint64_t> g_generation{0};

/// Per-thread binding cache.  Constant-initialized POD: first touch
/// from a fresh thread performs no allocation and runs no dynamic
/// initializer — required by the zero-steady-state-allocation contract.
struct binding {
  std::uint64_t generation = 0;
  void* ring = nullptr;
};
thread_local constinit binding t_binding{};

}  // namespace

collector::collector(const config& cfg) : cfg_(cfg) {
  if (cfg_.events_per_thread < 16) cfg_.events_per_thread = 16;
  if (cfg_.max_threads < 1) cfg_.max_threads = 1;
  rings_ = std::vector<ring>(cfg_.max_threads);
  for (ring& r : rings_) r.buf.resize(cfg_.events_per_thread);
  epoch_ns_ = now_ns();
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

collector::ring* collector::ring_for_thread() noexcept {
  binding& b = t_binding;
  if (b.generation != generation_) {
    b.generation = generation_;
    const std::size_t i = next_ring_.fetch_add(1, std::memory_order_relaxed);
    b.ring = i < rings_.size() ? static_cast<void*>(&rings_[i]) : nullptr;
  }
  return static_cast<ring*>(b.ring);
}

void collector::record_span(span k, std::uint32_t id, std::int64_t t0_ns,
                            std::int64_t t1_ns, std::int64_t arg) noexcept {
  ring* r = ring_for_thread();
  if (r == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n = r->seen.load(std::memory_order_relaxed);
  event& e = r->buf[n % cfg_.events_per_thread];
  e.t_ns = t0_ns;
  e.dur_ns = t1_ns > t0_ns ? t1_ns - t0_ns : 0;
  e.arg = arg;
  e.id = id;
  e.kind = static_cast<std::uint8_t>(k);
  e.is_instant = 0;
  r->seen.store(n + 1, std::memory_order_release);
}

void collector::record_instant(instant k, std::uint32_t id, std::int64_t t_ns,
                               std::int64_t arg) noexcept {
  ring* r = ring_for_thread();
  if (r == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n = r->seen.load(std::memory_order_relaxed);
  event& e = r->buf[n % cfg_.events_per_thread];
  e.t_ns = t_ns;
  e.dur_ns = 0;
  e.arg = arg;
  e.id = id;
  e.kind = static_cast<std::uint8_t>(k);
  e.is_instant = 1;
  r->seen.store(n + 1, std::memory_order_release);
}

std::uint64_t collector::size() const noexcept {
  std::uint64_t total = 0;
  for (const ring& r : rings_) {
    const std::uint64_t seen = r.seen.load(std::memory_order_acquire);
    total += seen < cfg_.events_per_thread ? seen : cfg_.events_per_thread;
  }
  return total;
}

std::uint64_t collector::dropped() const noexcept {
  std::uint64_t total = dropped_.load(std::memory_order_relaxed);
  for (const ring& r : rings_) {
    const std::uint64_t seen = r.seen.load(std::memory_order_acquire);
    if (seen > cfg_.events_per_thread) total += seen - cfg_.events_per_thread;
  }
  return total;
}

std::size_t collector::dump_chrome_json(char* buf, std::size_t cap) const {
  text_buffer out(buf, cap);
  out.printf(
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%llu,"
      "\"enabled\":%d},\"traceEvents\":[",
      static_cast<unsigned long long>(dropped()),
      static_cast<int>(ANYSEQ_TRACING != 0));
  bool first = true;
  for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
    const ring& r = rings_[tid];
    const std::uint64_t seen = r.seen.load(std::memory_order_acquire);
    const std::uint64_t capacity = cfg_.events_per_thread;
    const std::uint64_t n = seen < capacity ? seen : capacity;
    const std::uint64_t oldest = seen - n;
    for (std::uint64_t j = 0; j < n; ++j) {
      const event e = r.buf[(oldest + j) % capacity];
      const double ts_us =
          static_cast<double>(e.t_ns - epoch_ns_) / 1e3;
      if (e.is_instant != 0) {
        out.printf(
            "%s{\"name\":\"%s\",\"cat\":\"service\",\"ph\":\"i\",\"s\":\"p\","
            "\"ts\":%.3f,\"pid\":1,\"tid\":%zu,"
            "\"args\":{\"id\":%u,\"arg\":%lld}}",
            first ? "" : ",", to_string(static_cast<instant>(e.kind)), ts_us,
            tid, e.id, static_cast<long long>(e.arg));
      } else {
        out.printf(
            "%s{\"name\":\"%s\",\"cat\":\"service\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
            "\"args\":{\"id\":%u,\"arg\":%lld}}",
            first ? "" : ",", to_string(static_cast<span>(e.kind)), ts_us,
            static_cast<double>(e.dur_ns) / 1e3, tid, e.id,
            static_cast<long long>(e.arg));
      }
      first = false;
    }
  }
  out.printf("]}\n");
  return out.needed();
}

}  // namespace anyseq::service::trace
