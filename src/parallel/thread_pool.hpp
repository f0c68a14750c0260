#pragma once
/// \file thread_pool.hpp
/// Minimal thread primitives used by the CPU backends.
///
/// Impala's `parallel(num_threads, a, b, body)` generator maps here onto
/// `thread_pool::parallel_for` (blocking, chunked) and `run_workers`
/// (spawn N persistent workers and join) — the building blocks of the
/// wavefront schedulers.
///
/// Jobs live in a preallocated slot ring, not a deque of std::function:
/// a small trivially-copyable closure is memcpy'd into its slot, so the
/// service hot path (`run` once per batch, `parallel_for` control blocks)
/// performs zero heap allocations once the ring has grown to the peak
/// backlog.  Larger or non-trivial closures transparently fall back to a
/// heap box — correctness never depends on the closure's shape.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/macros.hpp"
#include "core/types.hpp"

namespace anyseq::parallel {

/// Number of hardware threads (>= 1).
[[nodiscard]] inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Name thread `t` (its Linux `comm`, at most 15 characters) so an
/// operator can split CPU by role from /proc/<pid>/task/*/comm.  Called
/// by the creator right after construction, so the name is set before
/// anyone can observe the thread.  A no-op where the platform has no
/// thread names.
void name_thread(std::thread& t, const char* name) noexcept;

/// Spawn `n` workers running `body(worker_id)` and join them all.
/// `n == 0` or `n == 1` runs inline on the caller.
template <class Body>
void run_workers(int n, Body&& body) {
  if (n <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back([&body, t] { body(t); });
  for (auto& th : threads) th.join();
}

/// Classic task-queue thread pool with a preallocated job-slot ring.
/// Jobs are arbitrary callables; the pool also provides a blocking
/// chunked parallel_for.
class thread_pool {
 public:
  /// Closures up to this size that are trivially copyable and trivially
  /// destructible are stored inline in their ring slot (no allocation).
  static constexpr std::size_t job_payload_bytes = 48;

  explicit thread_pool(int n_threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Enqueue one job.  Small trivial closures go into the ring slot
  /// directly; anything else is boxed on the heap (rare, cold paths).
  template <class F>
  void run(F f) {
    static_assert(std::is_invocable_v<F&>, "job must be callable with ()");
    if constexpr (sizeof(F) <= job_payload_bytes &&
                  alignof(F) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<F> &&
                  std::is_trivially_destructible_v<F>) {
      enqueue_inline(&invoke_inline<F>, &f, sizeof(F));
    } else {
      enqueue_boxed(&invoke_boxed<F>, &discard_boxed<F>, new F(std::move(f)));
    }
  }

  /// Block until every enqueued job has finished.
  void wait_idle();

  /// Blocking parallel loop over [a, b), split into `chunks_per_thread`
  /// chunks per worker for load balance.  The caller claims chunks
  /// alongside n_chunks - 1 enqueued jobs instead of sleeping until they
  /// finish, and once every chunk is claimed it withdraws the jobs no
  /// worker has dequeued yet: the loop waits only for chunks in flight,
  /// never for a worker to wake up.  Each job captures one pointer to a
  /// stack-resident control block, so the loop itself never allocates
  /// through the job ring.  Called on one of this pool's own workers, the
  /// loop runs inline: its chunk jobs would otherwise queue behind
  /// workers that may all be blocked waiting for them.
  template <class Body>
  void parallel_for(index_t a, index_t b, Body&& body,
                    int chunks_per_thread = 4) {
    if (b <= a) return;
    const index_t total = b - a;
    const index_t n_chunks =
        std::min<index_t>(total, static_cast<index_t>(size()) *
                                     chunks_per_thread);
    if (n_chunks <= 1 || on_worker()) {
      for (index_t i = a; i < b; ++i) body(i);
      return;
    }
    struct control {
      std::atomic<index_t> next{0};
      std::atomic<int> remaining{0};  ///< enqueued jobs still running
      std::mutex done_mutex;
      std::condition_variable done_cv;
      index_t a = 0, total = 0, n_chunks = 0;
      std::remove_reference_t<Body>* body = nullptr;

      void claim() {
        for (index_t chunk = next.fetch_add(1); chunk < n_chunks;
             chunk = next.fetch_add(1)) {
          const index_t lo = a + chunk * total / n_chunks;
          const index_t hi = a + (chunk + 1) * total / n_chunks;
          for (index_t i = lo; i < hi; ++i) (*body)(i);
        }
      }
    } ctl;
    ctl.remaining.store(static_cast<int>(n_chunks - 1));
    ctl.a = a;
    ctl.total = total;
    ctl.n_chunks = n_chunks;
    ctl.body = &body;
    const auto task = [p = &ctl] {
      p->claim();
      // Decrement UNDER the mutex: the waiter's predicate must not
      // observe remaining == 0 until this worker is done touching the
      // stack-resident control block (otherwise parallel_for returns
      // and destroys it while we still hold/notify its members).
      {
        std::lock_guard lock(p->done_mutex);
        if (p->remaining.fetch_sub(1) == 1) p->done_cv.notify_all();
      }
    };
    for (index_t c = 1; c < n_chunks; ++c) run(task);
    // The jobs hold pointers into `ctl`: a throwing body on the caller
    // waits for them (they finish the loop) before the exception leaves
    // this frame.
    std::exception_ptr failed;
    try {
      ctl.claim();
    } catch (...) {
      failed = std::current_exception();
    }
    // Otherwise every chunk is claimed, and a job still queued would find
    // none: withdraw it instead of waiting for a worker to wake up for it.
    const int withdrawn =
        failed ? 0
               : static_cast<int>(withdraw(
                     &invoke_inline<std::remove_const_t<decltype(task)>>,
                     &task, sizeof task));
    {
      std::unique_lock lock(ctl.done_mutex);
      ctl.remaining.fetch_sub(withdrawn);
      ctl.done_cv.wait(lock, [&] { return ctl.remaining.load() == 0; });
    }
    if (failed) std::rethrow_exception(failed);
  }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Slots the job ring currently holds (tests assert it stops growing).
  [[nodiscard]] std::size_t ring_capacity() const;

  /// Process-wide pool sized to the hardware.
  static thread_pool& global();

 private:
  /// One ring slot: an inline payload interpreted by `invoke`, or a
  /// heap box owned until invocation.  Trivially copyable by design —
  /// ring growth is a memcpy.  `discard` frees a boxed job WITHOUT
  /// running it (destructor stragglers must not execute user code).
  struct job {
    alignas(alignof(std::max_align_t)) unsigned char payload[job_payload_bytes];
    void (*invoke)(job&) = nullptr;
    void (*discard)(job&) = nullptr;
    void* boxed = nullptr;
  };

  template <class F>
  static void invoke_inline(job& j) {
    // F is trivially copyable: its slot bytes ARE its value.  Copy them
    // to a properly typed local and call it (capturing lambdas have no
    // default constructor, so reconstruct via the byte representation).
    alignas(F) unsigned char buf[sizeof(F)];
    std::memcpy(buf, j.payload, sizeof(F));
    (*std::launder(reinterpret_cast<F*>(buf)))();
  }

  template <class F>
  static void invoke_boxed(job& j) {
    std::unique_ptr<F> f(static_cast<F*>(j.boxed));
    (*f)();
  }

  template <class F>
  static void discard_boxed(job& j) {
    delete static_cast<F*>(j.boxed);
  }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker() const noexcept;

  // Out-of-line (thread_pool.cpp): keeps the ring manipulation out of
  // every including TU — no weak `anyseq::parallel` loop symbols can be
  // emitted by the ISA-flagged engine TUs.
  void enqueue_inline(void (*invoke)(job&), const void* src,
                      std::size_t bytes);
  void enqueue_boxed(void (*invoke)(job&), void (*discard)(job&),
                     void* boxed);
  void push_slot_locked(const job& j);
  /// Turn every queued (not yet dequeued) job that runs `invoke` on a
  /// payload starting with `bytes` bytes equal to `payload` into a no-op;
  /// returns how many it cancelled.
  std::size_t withdraw(void (*invoke)(job&), const void* payload,
                       std::size_t bytes);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::vector<job> ring_;  ///< preallocated slots; grows to peak backlog
  std::size_t head_ = 0;   ///< index of the oldest queued job
  std::size_t count_ = 0;  ///< queued jobs
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace anyseq::parallel
