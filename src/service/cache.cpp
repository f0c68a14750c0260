/// \file cache.cpp
/// Response-cache internals: FNV-1a key hashing, probe-window lookup,
/// and clock eviction with recycled entry storage.

#include "service/cache.hpp"

#include <algorithm>
#include <new>
#include <type_traits>

#include "service/batcher.hpp"
#include "service/faultinject.hpp"

namespace anyseq::service {

namespace {

constexpr std::uint64_t fnv_offset = 0xCBF29CE484222325ull;
constexpr std::uint64_t fnv_prime = 0x00000100000001B3ull;

[[nodiscard]] std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                        std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= fnv_prime;
  }
  return h;
}

template <class T>
[[nodiscard]] std::uint64_t fnv1a_value(std::uint64_t h, const T& v) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a_bytes(h, &v, sizeof v);
}

/// Fold the dispatch-relevant option fields into the hash — the exact
/// field set options_compatible() compares, nothing more, so equal keys
/// always hash equally and unequal option sets almost never collide
/// (collisions are resolved by the field-wise compare anyway).
[[nodiscard]] std::uint64_t fold_options(std::uint64_t h,
                                         const align_options& o) noexcept {
  h = fnv1a_value(h, o.kind);
  h = fnv1a_value(h, o.want_alignment);
  h = fnv1a_value(h, o.match);
  h = fnv1a_value(h, o.mismatch);
  const bool has_matrix = o.matrix.has_value();
  h = fnv1a_value(h, has_matrix);
  if (has_matrix)
    h = fnv1a_bytes(h, o.matrix->table.data(),
                    o.matrix->table.size() * sizeof(score_t));
  h = fnv1a_value(h, o.gap_open);
  h = fnv1a_value(h, o.gap_extend);
  h = fnv1a_value(h, o.exec);
  h = fnv1a_value(h, o.threads);
  h = fnv1a_value(h, o.tile);
  h = fnv1a_value(h, o.precision);
  h = fnv1a_value(h, o.full_matrix_cells);
  return h;
}

[[nodiscard]] bool bytes_equal(const std::vector<char_t>& stored,
                               stage::seq_view v) noexcept {
  if (static_cast<index_t>(stored.size()) != v.size()) return false;
  return v.size() == 0 ||
         std::equal(stored.begin(), stored.end(), v.data());
}

/// Copy `src` into `dst` reusing dst's heap buffers (assign keeps
/// capacity) — the zero-steady-state-allocation half of the contract.
void copy_result(const alignment_result& src, alignment_result& dst) {
  dst.score = src.score;
  dst.q_begin = src.q_begin;
  dst.q_end = src.q_end;
  dst.s_begin = src.s_begin;
  dst.s_end = src.s_end;
  dst.q_aligned.assign(src.q_aligned);
  dst.s_aligned.assign(src.s_aligned);
  dst.cigar.assign(src.cigar);
  dst.has_alignment = src.has_alignment;
  dst.cells = src.cells;
  dst.variant = src.variant;
}

void copy_key(stage::seq_view v, std::vector<char_t>& dst) {
  dst.assign(v.data(), v.data() + v.size());
}

[[nodiscard]] std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

[[nodiscard]] std::size_t round_down_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p * 2 <= n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t cache_key_hash(stage::seq_view q, stage::seq_view s,
                             const align_options& opt) noexcept {
  std::uint64_t h = fnv_offset;
  const std::uint64_t qn = static_cast<std::uint64_t>(q.size());
  h = fnv1a_value(h, qn);  // length delimiter: (AB, C) != (A, BC)
  h = fnv1a_bytes(h, q.data(), static_cast<std::size_t>(q.size()));
  h = fnv1a_bytes(h, s.data(), static_cast<std::size_t>(s.size()));
  return fold_options(h, opt);
}

std::uint64_t sequence_hash(stage::seq_view q) noexcept {
  return fnv1a_bytes(fnv_offset, q.data(),
                     static_cast<std::size_t>(q.size()));
}

response_cache::response_cache(config cfg) {
  const std::size_t capacity = std::max<std::size_t>(1, cfg.capacity);
  const std::size_t want_shards =
      std::clamp<std::size_t>(cfg.shards, 1, 256);
  // Never more shards than would leave a shard with less than one probe
  // window of slots.
  std::size_t n_shards = round_down_pow2(want_shards);
  while (n_shards > 1 && capacity / n_shards < probe_window) n_shards /= 2;
  slots_per_shard_ = round_up_pow2(std::max<std::size_t>(
      probe_window, (capacity + n_shards - 1) / n_shards));
  shard_mask_ = n_shards - 1;
  shards_ = std::vector<shard>(n_shards);
  for (auto& sh : shards_) sh.slots = std::vector<entry>(slots_per_shard_);
}

response_cache::shard& response_cache::shard_for(
    std::uint64_t hash) noexcept {
  // Shard selection uses high bits, slot selection low bits — the two
  // indices must not be correlated or every shard would probe the same
  // few slots.
  return shards_[(hash >> 48) & shard_mask_];
}

std::size_t response_cache::slot_base(const shard& sh,
                                      std::uint64_t hash) const noexcept {
  (void)sh;
  return static_cast<std::size_t>(hash) & (slots_per_shard_ - 1);
}

bool response_cache::lookup(stage::seq_view q, stage::seq_view s,
                            const align_options& opt,
                            alignment_result& out) {
  const std::uint64_t h = cache_key_hash(q, s, opt);
  shard& sh = shard_for(h);
  {
    std::lock_guard lock(sh.m);
    const std::size_t base = slot_base(sh, h);
    for (std::size_t i = 0; i < probe_window; ++i) {
      entry& e = sh.slots[(base + i) & (slots_per_shard_ - 1)];
      if (!e.used || e.hash != h) continue;
      if (!bytes_equal(e.q, q) || !bytes_equal(e.s, s)) continue;
      if (!options_compatible(e.opt, opt)) continue;
      e.ref = 1;
      copy_result(e.result, out);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void response_cache::insert(stage::seq_view q, stage::seq_view s,
                            const align_options& opt,
                            const alignment_result& r) {
  const std::uint64_t h = cache_key_hash(q, s, opt);
  shard& sh = shard_for(h);
  std::lock_guard lock(sh.m);
  const std::size_t base = slot_base(sh, h);
  const std::size_t mask = slots_per_shard_ - 1;

  // Overwrite a matching entry (racing misses on the same key) or take
  // the first free slot in the window.
  entry* victim = nullptr;
  for (std::size_t i = 0; i < probe_window; ++i) {
    entry& e = sh.slots[(base + i) & mask];
    if (e.used && e.hash == h && bytes_equal(e.q, q) &&
        bytes_equal(e.s, s) && options_compatible(e.opt, opt)) {
      victim = &e;
      break;
    }
    if (!e.used && victim == nullptr) victim = &e;
  }

  if (victim == nullptr) {
    // Window full: clock walk from the roving hand — one second chance
    // (ref 1 -> 0), then evict.  Two passes bound the walk; after the
    // first pass every ref bit is clear, so the second always selects.
    for (std::size_t pass = 0; pass < 2 && victim == nullptr; ++pass) {
      for (std::size_t i = 0; i < probe_window; ++i) {
        entry& e = sh.slots[(base + ((sh.hand + i) % probe_window)) & mask];
        if (e.ref != 0) {
          e.ref = 0;
          continue;
        }
        victim = &e;
        sh.hand = (sh.hand + i + 1) % probe_window;
        break;
      }
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  // The copies allocate and can throw.  The victim leaves the table
  // first and is marked used only once every copy has landed, so a
  // failed insert costs at most the entry it was replacing — never a
  // key that maps to someone else's result.
  if (victim->used) {
    victim->used = false;
    --sh.live;
  }
  copy_key(q, victim->q);
  copy_key(s, victim->s);
  victim->opt = opt;
  // Fault hook where a failure hurts most: the key already names the
  // new request, the result is still the old one's.
  if (ANYSEQ_FAULT_POINT(alloc_failure)) throw std::bad_alloc();
  copy_result(r, victim->result);
  victim->used = true;
  victim->ref = 0;  // newly inserted entries earn their reference on hit
  victim->hash = h;
  ++sh.live;
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void response_cache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard lock(sh.m);
    for (auto& e : sh.slots) {
      e.used = false;
      e.ref = 0;
    }
    sh.live = 0;
    sh.hand = 0;
  }
}

cache_stats response_cache::stats() const {
  cache_stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.capacity = capacity();
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh.m);
    out.entries += sh.live;
  }
  return out;
}

std::size_t response_cache::capacity() const noexcept {
  return shards_.size() * slots_per_shard_;
}

}  // namespace anyseq::service
