#pragma once
/// \file work_queue.hpp
/// The thread-safe ready queue of the dynamic wavefront scheduler (paper
/// §IV-A: "submatrices are scheduled in a thread-safe queue which allows
/// threads to add and extract work items concurrently").

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::parallel`,
/// once per engine variant — the scheduler's queue/dependency loops run
/// inside the variant TU and must not share COMDATs with baseline code)

#include "simd/set_target.hpp"

#include <algorithm>
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
using ::anyseq::parallel::thread_pool;

/// Unbounded multi-producer multi-consumer FIFO.  `pop` blocks until an
/// item arrives or the queue is closed.
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

  /// Blocking pop; empty optional means the queue was closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;
    return pop_locked();
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Most items ever queued at once since construction or `bind`.
  [[nodiscard]] std::size_t peak_size() const {
    std::lock_guard lock(mutex_);
    return peak_;
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

}  // namespace parallel
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::parallel {
using v_scalar::parallel::mpmc_queue;
}  // namespace anyseq::parallel
#endif  // scalar exports
