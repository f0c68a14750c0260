#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <new>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace anyseq::parallel {

namespace {
/// The pool whose worker_loop runs on this thread; null elsewhere.
thread_local const thread_pool* tl_worker_pool = nullptr;
}  // namespace

void name_thread(std::thread& t, const char* name) noexcept {
#if defined(__linux__)
  (void)pthread_setname_np(t.native_handle(), name);
#else
  (void)t;
  (void)name;
#endif
}

bool thread_pool::on_worker() const noexcept {
  return tl_worker_pool == this;
}

thread_pool::thread_pool(int n_threads) {
  const int n = n_threads <= 0 ? hardware_threads() : n_threads;
  ring_.resize(static_cast<std::size_t>(2 * n));  // seed; grows to peak
  workers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
    name_thread(workers_.back(), "anyseq-pool");
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Workers drain the ring before exiting, but if a job was enqueued
  // after stop_ was set there could be boxed stragglers; free them
  // WITHOUT running them (their captured state may already be gone).
  for (std::size_t k = 0; k < count_; ++k) {
    job& j = ring_[(head_ + k) % ring_.size()];
    if (j.boxed != nullptr) j.discard(j);
  }
}

void thread_pool::push_slots_locked(const job& j, std::size_t count) {
  if (count_ + count > ring_.size()) {
    // Grow to the new peak backlog: copy the live window in order.
    std::vector<job> bigger(
        std::max<std::size_t>({16, 2 * ring_.size(), count_ + count}));
    for (std::size_t k = 0; k < count_; ++k)
      bigger[k] = ring_[(head_ + k) % ring_.size()];
    ring_.swap(bigger);
    head_ = 0;
  }
  for (std::size_t k = 0; k < count; ++k)
    ring_[(head_ + count_++) % ring_.size()] = j;
}

std::size_t thread_pool::withdraw(void (*invoke)(job&), const void* payload,
                                  std::size_t bytes) {
  // Compact the window: withdrawn jobs leave no slot for the ring to grow.
  std::lock_guard lock(mutex_);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count_; ++k) {
    const job j = ring_[(head_ + k) % ring_.size()];
    if (j.invoke != invoke || std::memcmp(j.payload, payload, bytes) != 0)
      ring_[(head_ + kept++) % ring_.size()] = j;
  }
  const std::size_t n = count_ - kept;
  count_ = kept;
  if (count_ == 0 && active_ == 0) idle_cv_.notify_all();
  return n;
}

void thread_pool::enqueue_inline(void (*invoke)(job&), const void* src,
                                 std::size_t bytes, std::size_t count) {
  job j;
  std::memcpy(j.payload, src, bytes);
  j.invoke = invoke;
  {
    std::lock_guard lock(mutex_);
    push_slots_locked(j, count);
  }
  count > 1 ? cv_.notify_all() : cv_.notify_one();
}

void thread_pool::enqueue_boxed(void (*invoke)(job&), void (*discard)(job&),
                                void* boxed) {
  job j;
  j.invoke = invoke;
  j.discard = discard;
  j.boxed = boxed;
  {
    std::lock_guard lock(mutex_);
    push_slots_locked(j, 1);
  }
  cv_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return count_ == 0 && active_ == 0; });
}

std::size_t thread_pool::ring_capacity() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

void thread_pool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    job j;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || count_ > 0; });
      if (stop_ && count_ == 0) return;
      j = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      --count_;
      ++active_;
    }
    j.invoke(j);
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (count_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

thread_pool& thread_pool::global() {
  static thread_pool pool(hardware_threads());
  return pool;
}

}  // namespace anyseq::parallel
