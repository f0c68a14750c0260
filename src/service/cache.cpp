/// \file cache.cpp
/// Response-cache internals: word-at-a-time key hashing, probe-window
/// lookup, and clock eviction with recycled entry storage.

#include "service/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "service/batcher.hpp"
#include "service/faultinject.hpp"

namespace anyseq::service {

namespace {

// Multiply-fold constants (wyhash's secrets): odd, about half their
// bits set.  A step's product is zero when its first word equals k0,
// which no sequence code, ASCII text or option word can.
constexpr std::uint64_t k0 = 0xA0761D6478BD642Full;
constexpr std::uint64_t k1 = 0xE7037ED1A0B428DBull;
constexpr std::uint64_t k2 = 0x8EBC6AF09C88C6E3ull;

/// Fold two words into one: the 64x64->128 product's halves xored, so
/// every input bit reaches every output bit.  Without a 128-bit type,
/// two 64-bit multiplies joined by a rotate and an xorshift stand in.
[[nodiscard]] std::uint64_t fold(std::uint64_t a, std::uint64_t b) noexcept {
#ifdef __SIZEOF_INT128__
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
#else
  std::uint64_t x = (a * k1) ^ std::rotl(b * k2, 32);
  x ^= x >> 29;
  return x * k0;
#endif
}

[[nodiscard]] std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Word-at-a-time key hash: 16 bytes per multiply, each `bytes` run's
/// tail zero-padded into one last step, and the byte count mixed into
/// the finish so a padded tail never equals a longer input.
class key_hasher {
 public:
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    len_ += n;
    for (; n >= 16; p += 16, n -= 16) step(load_word(p), load_word(p + 8));
    if (n > 0) {
      unsigned char tail[16] = {};
      std::memcpy(tail, p, n);
      step(load_word(tail), load_word(tail + 8));
    }
  }

  [[nodiscard]] std::uint64_t finish() const noexcept {
    return fold(h_ ^ k1, len_ ^ k2);
  }

 private:
  void step(std::uint64_t a, std::uint64_t b) noexcept {
    h_ = fold(a ^ k0, b ^ h_);
  }

  std::uint64_t h_ = k0;
  std::uint64_t len_ = 0;
};

/// Fold the dispatch-relevant option fields into the hash — the exact
/// field set options_compatible() compares, nothing more, so equal keys
/// always hash equally and unequal option sets almost never collide
/// (collisions are resolved by the field-wise compare anyway).  Each
/// field is one word, so the set costs six 16-byte steps.
void fold_options(key_hasher& h, const align_options& o) noexcept {
  const std::uint64_t words[] = {
      static_cast<std::uint64_t>(o.kind),
      static_cast<std::uint64_t>(o.want_alignment),
      static_cast<std::uint64_t>(o.match),
      static_cast<std::uint64_t>(o.mismatch),
      static_cast<std::uint64_t>(o.matrix.has_value()),
      static_cast<std::uint64_t>(o.gap_open),
      static_cast<std::uint64_t>(o.gap_extend),
      static_cast<std::uint64_t>(o.exec),
      static_cast<std::uint64_t>(o.threads),
      static_cast<std::uint64_t>(o.tile),
      static_cast<std::uint64_t>(o.precision),
      static_cast<std::uint64_t>(o.full_matrix_cells)};
  h.bytes(words, sizeof words);
  if (o.matrix.has_value())
    h.bytes(o.matrix->table.data(), o.matrix->table.size() * sizeof(score_t));
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
  key_hasher h;
  const std::uint64_t qn = static_cast<std::uint64_t>(q.size());
  h.bytes(&qn, sizeof qn);  // length delimiter: (AB, C) != (A, BC)
  h.bytes(q.data(), static_cast<std::size_t>(q.size()));
  h.bytes(s.data(), static_cast<std::size_t>(s.size()));
  fold_options(h, opt);
  return h.finish();
}

std::uint64_t sequence_hash(stage::seq_view q) noexcept {
  key_hasher h;
  h.bytes(q.data(), static_cast<std::size_t>(q.size()));
  return h.finish();
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
                            const align_options& opt, std::uint64_t h,
                            alignment_result& out) {
  shard& sh = shard_for(h);
  std::lock_guard lock(sh.m);
  const std::size_t base = slot_base(sh, h);
  for (std::size_t i = 0; i < probe_window; ++i) {
    entry& e = sh.slots[(base + i) & (slots_per_shard_ - 1)];
    if (!e.used || e.hash != h) continue;
    if (!bytes_equal(e.q, q) || !bytes_equal(e.s, s)) continue;
    if (!options_compatible(e.opt, opt)) continue;
    // A hot entry's bit is already set: leave its line clean.
    if (e.ref == 0) e.ref = 1;
    copy_result(e.result, out);
    return true;
  }
  return false;
}

void response_cache::insert(stage::seq_view q, stage::seq_view s,
                            const align_options& opt, std::uint64_t h,
                            const alignment_result& r) {
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
