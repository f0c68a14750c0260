/// \file work_queue.hpp
/// Thread-safe work containers for the dynamic wavefront scheduler
/// (paper §IV-A: "submatrices are scheduled in a thread-safe queue which
/// allows threads to add and extract work items concurrently").
///
/// Two interchangeable implementations — a mutex+condvar MPMC queue (the
/// default) and a lock-free Treiber stack — because the paper attributes
/// part of AnySeq's edge over SeqAn to "the internals of the concurrent
/// queue used for scheduling tiles"; bench_ablation compares them.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::parallel`,
/// once per engine variant — the scheduler's queue/dependency loops run
/// inside the variant TU and must not share COMDATs with baseline code)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_PARALLEL_WORK_QUEUE_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_PARALLEL_WORK_QUEUE_HPP_
#undef ANYSEQ_PARALLEL_WORK_QUEUE_HPP_
#else
#define ANYSEQ_PARALLEL_WORK_QUEUE_HPP_
#endif

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/macros.hpp"
#include "parallel/thread_pool.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace parallel {

/// The thread pool itself is baseline code (one copy, compiled in
/// parallel/thread_pool.cpp); re-export its names into the per-target
/// scope so the cloned scheduler/engine code can keep the `parallel::`
/// spelling for them too.
using ::anyseq::parallel::hardware_threads;
using ::anyseq::parallel::run_workers;
using ::anyseq::parallel::thread_pool;

/// Unbounded multi-producer multi-consumer FIFO.  `pop` blocks until an
/// item arrives or the queue is closed; `try_pop_n` grabs up to n items
/// at once (the SIMD block formation path, paper Fig. 3).
///
/// Storage is a ring, either self-owned (grows to the peak backlog) or
/// bound to caller-carved workspace memory (`bind`): the wavefront
/// scheduler binds a span sized by the most tiles that can ever be ready
/// at once, so a bound queue never grows and a steady-state pass performs
/// zero allocations.  If a bound ring ever would overflow, it
/// transparently migrates to owned storage (defensive; not reachable
/// from the scheduler — `peak_size` lets tests check the bound).
template <class T>
class mpmc_queue {
 public:
  mpmc_queue() = default;

  /// Use `backing` as the ring storage (capacity = backing.size()).
  /// Call before any push; resets the ring.
  void bind(std::span<T> backing) {
    std::lock_guard lock(mutex_);
    ext_ = backing;
    head_ = 0;
    count_ = 0;
    peak_ = 0;
  }

  void push(T item) {
    {
      std::lock_guard lock(mutex_);
      push_locked(item);
    }
    cv_.notify_one();
  }

  void push_many(const std::vector<T>& items) {
    push_many(items.data(), items.size());
  }

  void push_many(const T* items, std::size_t n) {
    if (n == 0) return;
    {
      std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < n; ++i) push_locked(items[i]);
    }
    cv_.notify_all();
  }

  /// Blocking pop; empty optional means the queue was closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;
    return pop_locked();
  }

  /// Pop up to `max_n` items without blocking (may return fewer or none).
  std::size_t try_pop_n(std::vector<T>& out, std::size_t max_n) {
    std::lock_guard lock(mutex_);
    const std::size_t n = std::min(max_n, count_);
    for (std::size_t i = 0; i < n; ++i) out.push_back(pop_locked());
    return n;
  }

  /// Blocking pop of up to `max_n` items: waits for at least one.
  std::size_t pop_n(std::vector<T>& out, std::size_t max_n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || count_ > 0; });
    const std::size_t n = std::min(max_n, count_);
    for (std::size_t i = 0; i < n; ++i) out.push_back(pop_locked());
    return n;
  }

  /// Blocking pop of up to `max_n` items into a raw buffer (the
  /// allocation-free scheduler path).
  std::size_t pop_n(T* out, std::size_t max_n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || count_ > 0; });
    const std::size_t n = std::min(max_n, count_);
    for (std::size_t i = 0; i < n; ++i) out[i] = pop_locked();
    return n;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return count_;
  }

  /// Most items ever queued at once since construction or `bind`.
  [[nodiscard]] std::size_t peak_size() const {
    std::lock_guard lock(mutex_);
    return peak_;
  }

  /// True while the ring still lives in the bound external storage.
  [[nodiscard]] bool uses_bound_storage() const {
    std::lock_guard lock(mutex_);
    return !ext_.empty();
  }

 private:
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ext_.empty() ? own_.size() : ext_.size();
  }
  [[nodiscard]] T& slot(std::size_t i) noexcept {
    return ext_.empty() ? own_[i] : ext_[i];
  }

  void push_locked(const T& x) {
    if (count_ == capacity()) {
      // Grow into owned storage (unbinds any exhausted external ring).
      std::vector<T> bigger(capacity() == 0 ? 16 : 2 * capacity());
      for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = slot((head_ + i) % capacity());
      own_.swap(bigger);
      ext_ = {};
      head_ = 0;
    }
    slot((head_ + count_) % capacity()) = x;
    ++count_;
    peak_ = std::max(peak_, count_);
  }

  T pop_locked() {
    T out = slot(head_);
    head_ = (head_ + 1) % capacity();
    --count_;
    return out;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<T> own_;  ///< owned ring storage (grows to peak backlog)
  std::span<T> ext_;    ///< bound external ring storage (never grows)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t peak_ = 0;
  bool closed_ = false;
};

/// Lock-free Treiber stack (LIFO) over preallocated nodes.  T must be
/// trivially copyable.  The LIFO order gives better cache locality for
/// wavefront tiles (the most recently enabled tile's inputs are hot).
///
/// ABA safety: the head is a 64-bit (tag, index) word — every successful
/// CAS bumps the tag, so a node that was popped and re-pushed between a
/// competitor's load and CAS no longer compares equal.  Both the ready
/// list and the free list use the same tagged representation.
template <class T>
class treiber_stack {
 public:
  explicit treiber_stack(std::size_t capacity)
      : nodes_(capacity), head_(knull), free_(knull) {
    // Chain all nodes onto the free list.
    for (std::size_t i = 0; i < capacity; ++i)
      nodes_[i].next.store(i + 1 < capacity
                               ? static_cast<std::uint32_t>(i + 1)
                               : knull_index,
                           std::memory_order_relaxed);
    free_.store(make_word(0, capacity == 0 ? knull_index : 0),
                std::memory_order_relaxed);
  }

  /// Returns false when capacity is exhausted (callers size the stack to
  /// the maximum number of simultaneously-ready items).
  bool push(T value) {
    const std::uint32_t idx = pop_from(free_);
    if (idx == knull_index) return false;
    nodes_[idx].value = value;
    push_to(head_, idx);
    return true;
  }

  std::optional<T> try_pop() {
    const std::uint32_t idx = pop_from(head_);
    if (idx == knull_index) return std::nullopt;
    T out = nodes_[idx].value;
    push_to(free_, idx);
    return out;
  }

  [[nodiscard]] bool empty() const {
    return index_of(head_.load(std::memory_order_acquire)) == knull_index;
  }

 private:
  struct node {
    T value{};
    /// Atomic because a competitor may read the `next` of a node that a
    /// concurrent push is relinking: the stale value it sees is always
    /// rejected by the tagged CAS, but the access itself must not be a
    /// (formally UB, TSan-reported) plain-field race.  Relaxed ordering
    /// suffices — the list CASes carry the acquire/release edges.
    std::atomic<std::uint32_t> next{knull_index};
  };

  static constexpr std::uint32_t knull_index = 0xFFFFFFFFu;
  static constexpr std::uint64_t knull = 0xFFFFFFFFull;

  static constexpr std::uint64_t make_word(std::uint32_t tag,
                                           std::uint64_t index) noexcept {
    return (static_cast<std::uint64_t>(tag) << 32) | index;
  }
  static constexpr std::uint32_t index_of(std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>(word);
  }
  static constexpr std::uint32_t tag_of(std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>(word >> 32);
  }

  std::uint32_t pop_from(std::atomic<std::uint64_t>& list) {
    std::uint64_t old = list.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t idx = index_of(old);
      if (idx == knull_index) return knull_index;
      const std::uint64_t next = make_word(
          tag_of(old) + 1, nodes_[idx].next.load(std::memory_order_relaxed));
      if (list.compare_exchange_weak(old, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        return idx;
    }
  }

  void push_to(std::atomic<std::uint64_t>& list, std::uint32_t idx) {
    std::uint64_t old = list.load(std::memory_order_relaxed);
    for (;;) {
      nodes_[idx].next.store(index_of(old), std::memory_order_relaxed);
      const std::uint64_t next = make_word(tag_of(old) + 1, idx);
      if (list.compare_exchange_weak(old, next, std::memory_order_acq_rel,
                                     std::memory_order_relaxed))
        return;
    }
  }

  std::vector<node> nodes_;
  std::atomic<std::uint64_t> head_;
  std::atomic<std::uint64_t> free_;
};

}  // namespace parallel
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::parallel {
using v_scalar::parallel::mpmc_queue;
using v_scalar::parallel::treiber_stack;
}  // namespace anyseq::parallel
#endif  // scalar exports

#endif  // per-target include guard
