#pragma once
/// \file workspace.hpp
/// Caller-owned reusable memory arena for the plan/execute split.
///
/// Every alignment pass used to heap-allocate its DP buffers on entry
/// (rolling rows, full matrices, Hirschberg last-row quadruples, border
/// frontiers, SIMD block scratch).  A `workspace` replaces all of that
/// with one bump arena the caller owns and reuses: *plan* decides the
/// route and footprint, *execute* carves spans out of the arena.  After
/// warm-up (the arena has grown to the working set of the largest shape
/// seen) repeated passes perform zero heap allocations — the contract
/// tests/core/alloc_steady_state_test.cpp enforces.
///
/// Allocation discipline is a stack: engines open a `workspace::frame`,
/// carve spans with `make<T>()`, and the frame's destructor rewinds the
/// arena — so Hirschberg recursion reuses the same bytes level after
/// level instead of accumulating.  One slab serves the whole pass; when
/// a carve does not fit, an overflow chunk is taken (warm-up only) and
/// the next `begin_pass()` regrows the slab to the observed high-water
/// mark and drops the chunks.
///
/// The workspace also pools `alignment_builder`s (traceback string
/// scratch) so divide & conquer base cases reuse string capacity, and
/// lets the top-level builder adopt the caller's recycled
/// `alignment_result` buffers — the capacity circulates between the
/// caller's result object and the pool instead of being reallocated.
///
/// Thread-safety: a workspace serves ONE pass at a time and must only be
/// carved from by the thread driving the pass.  Multi-threaded engines
/// carve per-worker scratch up front (on the driving thread) and hand
/// each worker its own slice.
///
/// Per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant — the arena's carve loops and the builder pool must
/// never share a COMDAT with another variant's code (the symbol audit
/// checks `workspace::`).  Workspaces cross the `engine::ops` dispatch
/// boundary as opaque `void*` handles only.

#include "simd/set_target.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/macros.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/types.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

class workspace {
 public:
  /// Every carve is aligned to this (covers the 64-byte AVX-512 packs).
  static constexpr std::size_t carve_align = 64;

  workspace() = default;
  workspace(workspace&&) noexcept = default;
  workspace& operator=(workspace&&) noexcept = default;
  workspace(const workspace&) = delete;
  workspace& operator=(const workspace&) = delete;

  /// Start a pass: rewind the arena and, if a previous pass's live peak
  /// exceeded the slab (it spilled into overflow chunks), regrow the
  /// slab to the high-water mark so this pass (and every later one of
  /// the same shape) fits in one allocation-free slab.  `high_water_`
  /// is sticky across frame rewinds — it records the live peak even
  /// though the frames freed their overflow chunks on unwind.
  void begin_pass() {
    overflow_.clear();
    overflow_bytes_ = 0;
    if (high_water_ > slab_span()) resize_slab(high_water_);
    used_ = 0;
  }

  /// Pre-size the arena so a pass needing up to `bytes` carves without
  /// allocating — the execute half of `aligner::reserve`.
  void reserve_bytes(std::size_t bytes) {
    if (bytes > slab_span()) resize_slab(bytes);
    if (bytes > high_water_) high_water_ = bytes;
  }

  /// Carve `count` elements of T (uninitialized).
  template <class T>
  [[nodiscard]] std::span<T> make(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "the arena carves raw storage: T must be trivial enough");
    if (count == 0) return {};
    void* p = alloc(count * sizeof(T));
    return {static_cast<T*>(p), count};
  }

  /// Carve and fill.
  template <class T>
  [[nodiscard]] std::span<T> make(std::size_t count, const T& fill) {
    auto s = make<T>(count);
    for (auto& x : s) x = fill;
    return s;
  }

  /// Stack discipline: rewinds the arena — slab offset AND overflow
  /// chunks — to its construction point, so the high-water mark tracks
  /// the LIVE peak, not the cumulative bytes a cold pass ever carved
  /// (a cold batch pass over N chunks must not regrow the slab to N
  /// chunks' worth of scratch).
  class frame {
   public:
    explicit frame(workspace& ws) noexcept
        : ws_(&ws),
          mark_(ws.used_),
          overflow_mark_(ws.overflow_.size()),
          overflow_bytes_mark_(ws.overflow_bytes_) {}
    ~frame() {
      ws_->used_ = mark_;
      ws_->overflow_.resize(overflow_mark_);  // frees chunks carved inside
      ws_->overflow_bytes_ = overflow_bytes_mark_;
    }
    frame(const frame&) = delete;
    frame& operator=(const frame&) = delete;

   private:
    workspace* ws_;
    std::size_t mark_;
    std::size_t overflow_mark_;
    std::size_t overflow_bytes_mark_;
  };

  /// Bytes the arena currently holds (slab + live overflow chunks).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slab_span() + overflow_bytes_;
  }

  /// Peak concurrent usage ever observed (what begin_pass grows to).
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_;
  }

  /// Release all arena and builder-pool memory (footprint control for
  /// long-lived aligners between bursts).  The next pass re-warms.
  void shrink() noexcept {
    slab_ = {};
    overflow_.clear();
    overflow_bytes_ = 0;
    used_ = 0;
    high_water_ = 0;
    builders_.clear();
    builders_busy_ = 0;
  }

  // --- pooled traceback builders ------------------------------------

  /// RAII lease of a pooled alignment_builder (cleared, capacity kept).
  /// Leases nest strictly (divide & conquer), so release is LIFO.
  class builder_lease {
   public:
    explicit builder_lease(workspace& ws)
        : ws_(&ws), b_(&ws.acquire_builder()) {}
    /// Lease whose builder adopts the string capacity of a recycled
    /// result (the top-level builder of a traceback pass).
    builder_lease(workspace& ws, alignment_result& recycle)
        : builder_lease(ws) {
      b_->adopt_capacity(recycle);
    }
    ~builder_lease() { ws_->release_builder(); }
    builder_lease(const builder_lease&) = delete;
    builder_lease& operator=(const builder_lease&) = delete;

    [[nodiscard]] alignment_builder& get() noexcept { return *b_; }

   private:
    workspace* ws_;
    alignment_builder* b_;
  };

 private:
  friend class builder_lease;

  [[nodiscard]] static std::size_t align_up(std::size_t v) noexcept {
    return (v + (carve_align - 1)) & ~(carve_align - 1);
  }

  // The aligned base/usable-span are DERIVED from slab_ on demand (never
  // cached as raw members), so the defaulted move operations cannot
  // leave a moved-from workspace pointing into freed memory: after a
  // move, slab_ is empty, the span is 0, and any carve takes the
  // overflow path.
  [[nodiscard]] std::byte* slab_base() const noexcept {
    const auto base = reinterpret_cast<std::uintptr_t>(slab_.data());
    const std::uintptr_t aligned =
        (base + (carve_align - 1)) &
        ~static_cast<std::uintptr_t>(carve_align - 1);
    return reinterpret_cast<std::byte*>(aligned);
  }
  [[nodiscard]] std::size_t slab_span() const noexcept {
    if (slab_.empty()) return 0;
    return slab_.size() -
           static_cast<std::size_t>(slab_base() - slab_.data());
  }

  void resize_slab(std::size_t bytes) {
    // Nothing is live (begin_pass/reserve only): drop-and-regrow so the
    // old slab's contents are never copied.
    slab_ = {};
    slab_.resize(bytes + carve_align);
  }

  void* alloc(std::size_t bytes) {
    const std::size_t need = align_up(bytes);
    if (used_ + need <= slab_span()) {
      void* p = slab_base() + used_;
      used_ += need;
      if (used_ + overflow_bytes_ > high_water_)
        high_water_ = used_ + overflow_bytes_;
      return p;
    }
    // Warm-up spill: chunked so already-carved spans stay valid.
    overflow_.emplace_back(need + carve_align);
    overflow_bytes_ += need;
    if (used_ + overflow_bytes_ > high_water_)
      high_water_ = used_ + overflow_bytes_;
    const auto base = reinterpret_cast<std::uintptr_t>(overflow_.back().data());
    const std::uintptr_t aligned = (base + (carve_align - 1)) &
                                   ~static_cast<std::uintptr_t>(carve_align - 1);
    return reinterpret_cast<void*>(aligned);
  }

  alignment_builder& acquire_builder() {
    if (builders_busy_ == builders_.size())
      builders_.push_back(std::make_unique<alignment_builder>());
    alignment_builder& b = *builders_[builders_busy_++];
    b.clear();
    return b;
  }

  void release_builder() noexcept { --builders_busy_; }

  std::vector<std::byte> slab_;
  std::size_t used_ = 0;
  std::vector<std::vector<std::byte>> overflow_;
  std::size_t overflow_bytes_ = 0;
  std::size_t high_water_ = 0;

  // Stable addresses: outer leases must survive pool growth.
  std::vector<std::unique_ptr<alignment_builder>> builders_;
  std::size_t builders_busy_ = 0;
};

/// Footprint helper for the plan side: bytes `make<T>(count)` consumes.
template <class T>
[[nodiscard]] constexpr std::size_t carve_bytes(std::size_t count) noexcept {
  const std::size_t raw = count * sizeof(T);
  return (raw + (workspace::carve_align - 1)) &
         ~(workspace::carve_align - 1);
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::carve_bytes;
using v_scalar::workspace;
}  // namespace anyseq
#endif  // scalar exports
