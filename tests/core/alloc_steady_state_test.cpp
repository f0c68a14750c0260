/// \file alloc_steady_state_test.cpp
/// The zero-steady-state-allocation contract of the plan/execute split:
/// a reused `anyseq::aligner` must perform NO heap allocations once its
/// workspace arena, pooled builders, and the recycled result's string
/// buffers have grown to the working set — on every CPU route — and the
/// service's submit/complete cycle must stay allocation-free end to end
/// for score-only traffic.
///
/// Counting is done by replacing the global operator new/delete with
/// counting forwarders.  Most cases run with threads = 1; the contract
/// holds at threads > 1 too (the `FourThreads` and multi-threaded batch
/// cases): the wavefront's and the batch fan-out's workers are jobs on
/// the global pool, whose job ring stops growing once warm.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "capi/anyseq_c.h"
#include "parallel/thread_pool.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/trace.hpp"
#include "testutil.hpp"
#include "tiled/batch_engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace anyseq {
namespace {

using test::view;

/// Heap allocations performed (by ANY thread) while fn runs.
template <class Fn>
std::uint64_t allocs_during(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

align_options serial_opts() {
  align_options o;
  o.threads = 1;
  return o;
}

/// Warm an aligner+result on (q, s), then require zero allocations over
/// `iters` further calls.
void expect_steady_state(aligner& a, stage::seq_view q, stage::seq_view s,
                         int warmup = 3, int iters = 5) {
  alignment_result out;
  for (int i = 0; i < warmup; ++i) a.align_into(q, s, out);
  const auto n = allocs_during([&] {
    for (int i = 0; i < iters; ++i) a.align_into(q, s, out);
  });
  EXPECT_EQ(n, 0u) << "route " << a.plan(q.size(), s.size()).route
                   << " allocated in steady state";
}

TEST(AllocSteadyState, TiledScoreRoute) {
  const auto q = test::random_codes(700, 11);
  const auto s = test::random_codes(650, 22);
  align_options o = serial_opts();
  o.match = 30;  // past the int16 window: (700 + 650 + 2) * 30 > 28000
  o.tile = 128;  // several tiles, clipped edges included
  aligner a(o);
  EXPECT_STREQ(a.plan(700, 650).route, "tiled_score");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, TiledScoreRouteAffineLocal) {
  const auto q = test::random_codes(500, 33);
  const auto s = test::random_codes(640, 44);
  align_options o = serial_opts();
  o.kind = align_kind::local;
  o.match = 30;  // past the int16 window: (500 + 640 + 2) * 30 > 28000
  o.gap_open = -3;
  o.tile = 96;
  aligner a(o);
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, TiledScoreRouteFourThreads) {
  // The wavefront's workers are global-pool jobs, not threads spawned
  // per pass: a warm pass allocates nothing at threads = 4 either.
  const auto q = test::random_codes(700, 11);
  const auto s = test::random_codes(650, 22);
  align_options o = serial_opts();
  o.threads = 4;
  o.tile = 128;
  aligner a(o);
  EXPECT_STREQ(a.plan(700, 650).route, "tiled_score");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, TiledScoreRouteAffineLocalFourThreads) {
  const auto q = test::random_codes(500, 33);
  const auto s = test::random_codes(640, 44);
  align_options o = serial_opts();
  o.threads = 4;
  o.kind = align_kind::local;
  o.gap_open = -3;
  o.tile = 96;
  aligner a(o);
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, SmallScoreRoute) {
  // The scalar variant rolls small extension problems (vector variants
  // stripe them: StripedScoreRoute).
  const auto q = test::random_codes(120, 5);
  const auto s = test::random_codes(110, 6);
  align_options o = serial_opts();
  o.kind = align_kind::extension;
  o.exec = backend::scalar;
  aligner a(o);
  EXPECT_STREQ(a.plan(120, 110).route, "small_score");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, BitparScoreRoute) {
  const auto q = test::random_codes(150, 75);
  const auto s = test::random_codes(140, 76);
  align_options o = serial_opts();
  o.match = 0;
  o.mismatch = -1;
  o.gap_extend = -1;  // unit-cost set -> Myers bit-parallel engine
  aligner a(o);
  EXPECT_STREQ(a.plan(150, 140).route, "bitpar_score");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, BitparReserveMakesFirstPassAllocationFree) {
  const auto q = test::random_codes(300, 77);
  const auto s = test::random_codes(280, 78);
  align_options o = serial_opts();
  o.match = 0;
  o.mismatch = -2;
  o.gap_extend = -2;
  aligner a(o);
  a.reserve(300, 280);
  alignment_result out;
  const auto n = allocs_during([&] { a.align_into(view(q), view(s), out); });
  EXPECT_EQ(n, 0u) << "bitpar plan_bytes under-estimated its footprint";
}

TEST(AllocSteadyState, BatchMultiThreadedPooledWorkersSteadyState) {
  // The multi-threaded batch fan-out pulls groups off a shared atomic
  // cursor and carves every chunk from pooled per-worker arenas — no
  // per-chunk workspace, no per-run pool spawn.  Every 32-pair chunk
  // here has the identical ragged footprint (and fills well past the
  // 32-lane floor), so pre-sizing the worker arenas to one chunk makes
  // the warm path allocation-free no matter how the workers race over
  // the cursor.
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 64; ++i) {
    qs.push_back(test::random_codes(90 + i % 4, 700 + i));  // nbar = 93
    ss.push_back(test::random_codes(96, 800 + i));          // mbar = 96
  }
  for (int i = 0; i < 64; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{2, -1};
  std::vector<workspace> worker_ws(2);
  for (auto& w : worker_ws)
    w.reserve_bytes(tiled::ragged_chunk_plan_bytes<score16_t, 32>(96));
  tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 32>
      eng(linear_gap{-1}, sc,
          {2, score_precision::auto_select, std::span<workspace>(worker_ws)});
  workspace main_ws;
  std::vector<score_result> out(pairs.size());
  auto pass = [&] {
    main_ws.begin_pass();
    eng.score_into(std::span<const tiled::pair_view>(pairs), main_ws,
                   std::span<score_result>(out));
  };
  for (int i = 0; i < 3; ++i) pass();  // spawn the global pool, warm rings
  ASSERT_EQ(eng.last_stats().ragged_pairs, 64u);
  ASSERT_EQ(eng.last_stats().simd_pairs, 64u);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) pass();
  });
  EXPECT_EQ(n, 0u)
      << "warm multi-threaded batch path allocated in steady state";
}

TEST(AllocSteadyState, BatchRaggedSteadyState) {
  // Single-threaded mixed-length batch through the public API: the
  // lane-padded chunks carve from the handle's arena like every other
  // route — warm passes allocate nothing.  At (20+20+2)*2 = 84 < 96 these
  // windows run int8, whose fill floor admits them as ragged chunks on
  // every vector variant.
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 32; ++i) {
    qs.push_back(test::random_codes(16 + i % 5, 900 + i));
    ss.push_back(test::random_codes(18 + i % 3, 950 + i));
  }
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  aligner a(serial_opts());
  std::vector<alignment_result> out;
  for (int i = 0; i < 3; ++i) a.align_batch_into(pairs, out);
  ASSERT_GT(a.last_batch_stats().ragged_pairs, 0u);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) a.align_batch_into(pairs, out);
  });
  EXPECT_EQ(n, 0u) << "ragged batch allocated in steady state";
}

TEST(AllocSteadyState, BatchTailSteadyState) {
  // 53 uniform pairs on 32 lanes: one full chunk plus a 21-pair tail (at
  // least the linear-gap floor, kMinLive) the planner runs as one
  // lane-padded chunk.  The tail carves the same arena rows as a full
  // chunk, so warm passes allocate nothing.
  using engine =
      tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 32>;
  static_assert(engine::kMinLive <= 21);
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 53; ++i) {
    qs.push_back(test::random_codes(90, 1300 + i));
    ss.push_back(test::random_codes(96, 1400 + i));
  }
  for (int i = 0; i < 53; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  engine eng(linear_gap{-1}, simple_scoring{2, -1}, {1});
  workspace ws;
  std::vector<score_result> out(pairs.size());
  auto pass = [&] {
    ws.begin_pass();
    eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                   std::span<score_result>(out));
  };
  for (int i = 0; i < 3; ++i) pass();
  ASSERT_EQ(eng.last_stats().simd_pairs, 53u);
  ASSERT_EQ(eng.last_stats().padded_cells, 11u * 90u * 96u);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) pass();
  });
  EXPECT_EQ(n, 0u) << "tail batch allocated in steady state";
}

/// Runnable vector backends (generic lane loops on builds without ISA
/// flags) — the variants that carry the striped route.
std::vector<backend> vector_backends() {
  std::vector<backend> out;
  for (backend b : {backend::simd_avx2, backend::simd_avx512})
    if (test::backend_runnable(b)) out.push_back(b);
  return out;
}

TEST(AllocSteadyState, StripedScoreRoute) {
  // A lone 150 x 150 score request on a vector variant: the striped
  // kernel carves its stripe rows (H, F, profile, row maxima) from the
  // handle's arena, and reserve() pre-sizes exactly that, so even the
  // first pass is allocation-free.
  const auto q = test::random_codes(150, 61);
  const auto s = test::mutate(q, 62);
  for (const backend b : vector_backends())
    for (const align_kind k : {align_kind::global, align_kind::local}) {
      align_options o = serial_opts();
      o.exec = b;
      o.kind = k;
      o.gap_open = -2;
      aligner a(o);
      const auto n = static_cast<index_t>(q.size());
      const auto m = static_cast<index_t>(s.size());
      EXPECT_STREQ(a.plan(n, m).route, "striped_score");
      a.reserve(n, m);
      alignment_result out;
      EXPECT_EQ(allocs_during([&] { a.align_into(view(q), view(s), out); }),
                0u)
          << "striped plan_bytes under-estimated its footprint";
      expect_steady_state(a, view(q), view(s));
    }
}

TEST(AllocSteadyState, BatchStripedFallbackSteadyState) {
  // Batches of three ragged pairs fill no chunk: under auto each pair
  // runs the striped kernel inside the batch pass, carving from the
  // same arena — warm passes allocate nothing.
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 3; ++i) {
    qs.push_back(test::random_codes(140 + 9 * i, 1500 + i));
    ss.push_back(test::mutate(qs.back(), 1600 + i));
  }
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  for (const backend b : vector_backends()) {
    align_options o = serial_opts();
    o.exec = b;
    o.gap_open = -2;
    aligner a(o);
    std::vector<alignment_result> out;
    for (int i = 0; i < 3; ++i) a.align_batch_into(pairs, out);
    ASSERT_EQ(a.last_batch_stats().striped_pairs, 3u);
    const auto n = allocs_during([&] {
      for (int i = 0; i < 5; ++i) a.align_batch_into(pairs, out);
    });
    EXPECT_EQ(n, 0u) << "striped batch fallback allocated in steady state";
  }
}

TEST(AllocSteadyState, FullMatrixTracebackRoute) {
  const auto q = test::random_codes(200, 7);
  const auto s = test::random_codes(180, 8);
  align_options o = serial_opts();
  o.want_alignment = true;
  aligner a(o);
  EXPECT_STREQ(a.plan(200, 180).route, "full_matrix");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, HirschbergTracebackRoute) {
  const auto q = test::random_codes(900, 9);
  const auto s = test::random_codes(800, 10);
  align_options o = serial_opts();
  o.want_alignment = true;
  o.full_matrix_cells = 0;  // force divide & conquer
  o.tile = 128;
  aligner a(o);
  EXPECT_STREQ(a.plan(900, 800).route, "hirschberg");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, HirschbergTracebackRouteFourThreads) {
  // Every tiled last-row pass of the recursion fans out on the pool.
  const auto q = test::random_codes(3000, 1201);
  const auto s = test::random_codes(3000, 1202);
  align_options o = serial_opts();
  o.threads = 4;
  o.want_alignment = true;
  aligner a(o);
  EXPECT_STREQ(a.plan(3000, 3000).route, "hirschberg");
  expect_steady_state(a, view(q), view(s));
}

TEST(AllocSteadyState, LocateRoutes) {
  const auto q = test::random_codes(600, 13);
  const auto s = test::random_codes(700, 14);
  for (const align_kind k : {align_kind::local, align_kind::semiglobal}) {
    align_options o = serial_opts();
    o.kind = k;
    o.want_alignment = true;
    o.full_matrix_cells = 0;  // force locate + divide & conquer
    o.tile = 128;
    aligner a(o);
    EXPECT_STREQ(a.plan(600, 700).route, "locate");
    expect_steady_state(a, view(q), view(s));
  }
}

TEST(AllocSteadyState, BandedRoute) {
  const auto q = test::random_codes(400, 15);
  const auto s = test::random_codes(420, 16);
  align_options o = serial_opts();
  o.want_alignment = true;
  aligner a(o);
  const band b{-60, 80};
  alignment_result out;
  for (int i = 0; i < 3; ++i) a.align_banded_into(view(q), view(s), b, out);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) a.align_banded_into(view(q), view(s), b, out);
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocSteadyState, BatchRoutes) {
  // 20 uniform pairs (SIMD chunks) + a ragged tail (rolling fallback).
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 20; ++i) {
    qs.push_back(test::random_codes(96, 100 + i));
    ss.push_back(test::random_codes(96, 200 + i));
  }
  qs.push_back(test::random_codes(57, 300));
  ss.push_back(test::random_codes(71, 301));
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});

  for (const bool traceback : {false, true}) {
    align_options o = serial_opts();
    o.want_alignment = traceback;
    aligner a(o);
    std::vector<alignment_result> out;
    for (int i = 0; i < 3; ++i) a.align_batch_into(pairs, out);
    const auto n = allocs_during([&] {
      for (int i = 0; i < 5; ++i) a.align_batch_into(pairs, out);
    });
    EXPECT_EQ(n, 0u) << (traceback ? "batch traceback" : "batch score");
  }
}

TEST(AllocSteadyState, BatchTracebackMultiThreadedSteadyState) {
  // threads = 2 traceback batch: workers claim pairs off a shared cursor
  // on the global pool and align into their pooled arenas.  The pairs
  // are identical, so whichever worker takes a pair needs the same arena
  // rows and string capacity — warm passes allocate nothing.
  const auto q = test::random_codes(96, 1700);
  const auto s = test::mutate(q, 1701);
  std::vector<seq_pair> pairs(24, seq_pair{view(q), view(s)});
  align_options o = serial_opts();
  o.threads = 2;
  o.want_alignment = true;
  aligner a(o);
  std::vector<alignment_result> out;
  for (int i = 0; i < 3; ++i) a.align_batch_into(pairs, out);
  ASSERT_TRUE(out.front().has_alignment);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) a.align_batch_into(pairs, out);
  });
  EXPECT_EQ(n, 0u) << "multi-threaded batch traceback allocated";
}

/// A 150 bp pair whose global traceback band doubling certifies only
/// after doubling at least once (checked, so the cases below keep
/// covering a doubled pass).
std::pair<std::vector<char_t>, std::vector<char_t>> doubling_pair(
    std::uint64_t seed) {
  auto q = test::random_codes(150, seed);
  auto s = test::mutate(q, seed + 1, 0.10, 0.05);  // ~15% edits
  workspace ws;
  alignment_result r;
  const doubling_result d = doubling_global_into(
      view(q), view(s), test::paper_affine, test::paper_scoring, ws, r);
  EXPECT_TRUE(d.certified && d.passes >= 2) << "seed " << seed;
  return {std::move(q), std::move(s)};
}

TEST(AllocSteadyState, GlobalTracebackBandDoublingLonePair) {
  // A doubled certified pair and an unrelated pair that runs every band
  // pass and then the full matrix: reserve() covers the widest pass and
  // the fallback, so the arena never grows, and warm calls allocate
  // nothing.
  const auto [q, s] = doubling_pair(1800);
  const auto u = test::random_codes(150, 1802);
  align_options o = serial_opts();
  o.want_alignment = true;
  o.gap_open = -2;
  aligner a(o);
  ASSERT_STREQ(a.plan(150, 150).route, "full_matrix");
  a.reserve(160, 160);
  const std::size_t reserved = a.workspace_bytes();
  alignment_result out;
  a.align_into(view(q), view(s), out);  // warms the string buffers
  a.align_into(view(q), view(u), out);
  EXPECT_EQ(a.workspace_bytes(), reserved)
      << "plan_bytes under-estimated the band passes or the fallback";
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) {
      a.align_into(view(q), view(s), out);
      a.align_into(view(q), view(u), out);
    }
  });
  EXPECT_EQ(n, 0u) << "band-doubling traceback allocated in steady state";
}

TEST(AllocSteadyState, SoloTracebackPoolsNoWorkerArenas) {
  // The solo full-matrix route is a one-pair traceback batch: at
  // threads > 1 it must not pool the batch fan-out's worker arenas, so
  // after reserve() its first call allocates exactly what a serial
  // handle's does (the traceback's string buffers).
  const auto [q, s] = doubling_pair(1810);
  const auto first_call_allocs = [&](int threads) {
    align_options o = serial_opts();
    o.want_alignment = true;
    o.threads = threads;
    aligner a(o);
    a.reserve(160, 160);
    alignment_result out;
    return allocs_during([&] { a.align_into(view(q), view(s), out); });
  };
  EXPECT_EQ(first_call_allocs(4), first_call_allocs(1));
}

TEST(AllocSteadyState, BatchTracebackBandDoublingMultiThreaded) {
  // threads = 2 traceback batch mixing first-band, doubled and
  // fallback pairs: each worker warms its arena to the batch's largest
  // pair before claiming any, so warm runs allocate nothing however the
  // workers split the pairs.
  std::vector<std::vector<char_t>> qs, ss;
  for (std::uint64_t k = 0; k < 6; ++k) {
    qs.push_back(test::random_codes(150, 1900 + k));
    ss.push_back(test::mutate(qs.back(), 1950 + k, 0.02, 0.0));
    auto [q, s] = doubling_pair(2000 + 2 * k);
    qs.push_back(std::move(q));
    ss.push_back(std::move(s));
  }
  for (std::uint64_t k = 0; k < 3; ++k) {
    qs.push_back(test::random_codes(150, 2100 + k));
    ss.push_back(test::random_codes(150, 2150 + k));
  }
  std::vector<seq_pair> pairs;
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  align_options o = serial_opts();
  o.threads = 2;
  o.want_alignment = true;
  o.gap_open = -2;
  aligner a(o);
  std::vector<alignment_result> out;
  for (int i = 0; i < 3; ++i) a.align_batch_into(pairs, out);
  const batch_stats st = a.last_batch_stats();
  EXPECT_EQ(st.banded_pairs, 12u);
  EXPECT_GT(st.band_passes, st.banded_pairs);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) a.align_batch_into(pairs, out);
  });
  EXPECT_EQ(n, 0u) << "multi-threaded band-doubling batch allocated";
}

TEST(AllocSteadyState, ReserveMakesFirstScorePassAllocationFree) {
  const auto q = test::random_codes(512, 17);
  const auto s = test::random_codes(480, 18);
  align_options o = serial_opts();
  o.tile = 128;
  aligner a(o);
  a.reserve(512, 480);  // the plan's exact footprint pre-sizes the arena
  alignment_result out;
  const auto n = allocs_during([&] { a.align_into(view(q), view(s), out); });
  EXPECT_EQ(n, 0u) << "plan_bytes under-estimated the route's footprint";
  EXPECT_GT(a.workspace_bytes(), 0u);
}

TEST(AllocSteadyState, PlanReportsFootprintAndVariant) {
  aligner a(serial_opts());
  const auto p = a.plan(8000, 8000);  // past the int16 window
  EXPECT_STREQ(p.route, "tiled_score");
  EXPECT_GT(p.workspace_bytes, 0u);
  EXPECT_STREQ(p.variant, backend_name(serial_opts()));
  a.shrink();
  EXPECT_EQ(a.workspace_bytes(), 0u);
}

TEST(AllocSteadyState, OneShotAlignReusesThreadLocalWorkspace) {
  const auto q = test::random_codes(300, 19);
  const auto s = test::random_codes(280, 20);
  const align_options o = serial_opts();
  for (int i = 0; i < 3; ++i) (void)align(view(q), view(s), o);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) (void)align(view(q), view(s), o);
  });
  EXPECT_EQ(n, 0u) << "one-shot align() should ride the thread-local "
                      "aligner's warm workspace";
}

TEST(AllocSteadyState, CAlignerHandleScoresWithoutAllocating) {
  anyseq_aligner* a = anyseq_aligner_create();
  ASSERT_NE(a, nullptr);
  for (int i = 0; i < 3; ++i)
    (void)anyseq_aligner_global_score(a, "ACGTACGTACGTACGT",
                                      "ACGTCGTACGTTACGT", 2, -1, -1);
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i)
      (void)anyseq_aligner_global_score(a, "ACGTACGTACGTACGT",
                                        "ACGTCGTACGTTACGT", 2, -1, -1);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(anyseq_aligner_workspace_bytes(a), 0u);
  anyseq_aligner_shrink(a);
  anyseq_aligner_destroy(a);
}

/// Service steady state: score-only traffic must be allocation-free
/// across submit -> batcher -> execute -> complete -> get, on every
/// participating thread.  Runs the whole cycle to quiescence inside the
/// measured window, so batcher/pool-thread allocations are counted too.
TEST(AllocSteadyState, ServiceSubmitCompleteScoreOnly) {
  const auto q = test::random_codes(96, 21);
  const auto s = test::random_codes(96, 23);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;  // one exec unit: deterministic warm-up
  service::aligner svc(cfg);

  align_options o = serial_opts();  // global score-only -> batch_score
  auto cycle = [&] {
    service::ticket ts[8];
    for (int k = 0; k < 8; ++k) ts[k] = svc.submit(view(q), view(s), o);
    for (auto& t : ts) {
      const auto r = t.get();
      ASSERT_EQ(r.q_end, 96);
    }
  };
  // Warm-up covers both execute branches: forced 1-item batches (solo /
  // tiled path) and full batches (SIMD batch path) — the batcher's
  // linger makes the split timing-dependent, so both must be warm.
  for (int i = 0; i < 4; ++i) {
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
  }
  for (int i = 0; i < 6; ++i) cycle();  // warm slots, rings, arena, pool
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) cycle();
  });
  EXPECT_EQ(n, 0u) << "service submit/complete allocated in steady state";
}

TEST(AllocSteadyState, ServiceDeadlinesAndFaultHooksStayBranchOnly) {
  // The robustness machinery rides the happy path on every request:
  // deadline fields and shed checks, the quarantine's relaxed-load gate,
  // and the fault-injection hook points (compiled in by default, no
  // schedule armed).  All of it must stay branch-only — zero
  // steady-state allocations even with a real deadline attached.
  const auto q = test::random_codes(96, 27);
  const auto s = test::random_codes(96, 29);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  service::aligner svc(cfg);

  align_options o = serial_opts();
  auto cycle = [&] {
    service::submit_options so;
    so.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    service::ticket ts[8];
    for (int k = 0; k < 8; ++k) ts[k] = svc.submit(view(q), view(s), o, so);
    for (auto& t : ts) {
      // wait_for is part of the steady-state surface too.
      ASSERT_TRUE(t.wait_for(std::chrono::microseconds(60'000'000)));
      const auto r = t.get();
      ASSERT_EQ(r.q_end, 96);
    }
  };
  for (int i = 0; i < 4; ++i) {
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
  }
  for (int i = 0; i < 6; ++i) cycle();
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) cycle();
  });
  EXPECT_EQ(n, 0u) << "deadline/hook machinery allocated in steady state";
}

/// stats() is what a metrics scrape polls: once warm, neither a single
/// service's nor a sharded group's snapshot may allocate — percentiles
/// rank the fixed-size per-class histograms (and, for the group, their
/// bucket-wise merge) in place.
TEST(AllocSteadyState, ServiceAndGroupStatsAllocateNothing) {
  const auto q = test::random_codes(96, 47);
  const auto s = test::random_codes(96, 53);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  service::aligner svc(cfg);
  service::service_group::config gcfg;
  gcfg.shards = 2;
  gcfg.cache_capacity = 32;
  gcfg.shard = cfg;
  service::service_group group(gcfg);

  align_options o = serial_opts();
  service::submit_options bulk;
  bulk.cls = service::request_class::bulk;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(svc.submit(view(q), view(s), o).get().q_end, 96);
    ASSERT_EQ(svc.submit(view(q), view(s), o, bulk).get().q_end, 96);
    ASSERT_EQ(group.submit(view(q), view(s), o).get().q_end, 96);
    ASSERT_EQ(group.submit(view(q), view(s), o, bulk).get().q_end, 96);
  }
  (void)svc.stats();
  (void)group.stats();
  std::uint64_t ranked = 0;
  const auto n = allocs_during([&] {
    for (int i = 0; i < 4; ++i) {
      ranked += svc.stats().latency_samples;
      ranked += group.stats().latency_samples;
    }
  });
  EXPECT_EQ(n, 0u) << "stats() allocated in steady state";
  EXPECT_EQ(ranked, 4u * (8u + 8u));
}

/// Cache-hit path: once the response cache holds an entry, a hit cycle
/// (submit -> lookup -> copy-out -> complete-on-the-spot -> get) must be
/// allocation-free.  Hits never touch the ring or the batcher, so the
/// whole path runs on the submitting thread.
TEST(AllocSteadyState, ServiceCacheHitScoreOnly) {
  const auto q = test::random_codes(96, 31);
  const auto s = test::random_codes(96, 37);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  cfg.cache_capacity = 32;
  service::aligner svc(cfg);

  align_options o = serial_opts();
  {
    auto t = svc.submit(view(q), view(s), o);  // miss: computes + inserts
    ASSERT_EQ(t.get().q_end, 96);
  }
  for (int i = 0; i < 3; ++i) {  // warm the hit path (slot reuse, etc.)
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
  }
  const auto n = allocs_during([&] {
    for (int i = 0; i < 16; ++i) {
      auto t = svc.submit(view(q), view(s), o);
      ASSERT_EQ(t.get().q_end, 96);
    }
  });
  EXPECT_EQ(n, 0u) << "cache-hit path allocated in steady state";
  EXPECT_GE(svc.stats().cache_hits, 19u);
}

/// Tracing armed: recording into the per-thread rings is part of the
/// submit/complete hot path when a collector is armed, and it must be
/// allocation-free — rings are preallocated at collector construction
/// and the thread binding is a POD thread_local.
TEST(AllocSteadyState, ServiceTracingArmedScoreOnly) {
  const auto q = test::random_codes(96, 41);
  const auto s = test::random_codes(96, 43);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  service::aligner svc(cfg);

  service::trace::collector col;  // allocates here, never on record
  service::trace::arm(col);

  align_options o = serial_opts();
  auto cycle = [&] {
    service::ticket ts[8];
    for (int k = 0; k < 8; ++k) ts[k] = svc.submit(view(q), view(s), o);
    for (auto& t : ts) {
      const auto r = t.get();
      ASSERT_EQ(r.q_end, 96);
    }
  };
  for (int i = 0; i < 4; ++i) {
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
  }
  for (int i = 0; i < 6; ++i) cycle();
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) cycle();
  });
  EXPECT_EQ(n, 0u) << "armed tracing allocated in steady state";
  service::trace::disarm();
#if ANYSEQ_TRACING
  // The cycles really were traced: submit + complete spans at minimum.
  EXPECT_GT(col.size(), 0u);
#else
  EXPECT_EQ(col.size(), 0u);  // emission sites compiled out
#endif
}

/// Tracing disarmed (the default): the hook sites are one relaxed load
/// each and must add zero allocations — including right after an
/// arm/disarm transition, when threads still hold stale ring bindings.
TEST(AllocSteadyState, ServiceTracingDisarmedScoreOnly) {
  const auto q = test::random_codes(96, 47);
  const auto s = test::random_codes(96, 53);
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  service::aligner svc(cfg);

  {
    // Arm and disarm once so the steady-state window below runs with
    // stale thread bindings, the worst case for the disarmed path.
    service::trace::collector col;
    service::trace::arm(col);
    align_options o = serial_opts();
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
    service::trace::disarm();
  }

  align_options o = serial_opts();
  auto cycle = [&] {
    service::ticket ts[8];
    for (int k = 0; k < 8; ++k) ts[k] = svc.submit(view(q), view(s), o);
    for (auto& t : ts) {
      const auto r = t.get();
      ASSERT_EQ(r.q_end, 96);
    }
  };
  for (int i = 0; i < 4; ++i) {
    auto t = svc.submit(view(q), view(s), o);
    ASSERT_EQ(t.get().q_end, 96);
  }
  for (int i = 0; i < 6; ++i) cycle();
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) cycle();
  });
  EXPECT_EQ(n, 0u) << "disarmed tracing hooks allocated in steady state";
}

/// Cache-miss path under eviction pressure: a working set larger than
/// the cache keeps inserting and clock-evicting, and once every entry's
/// key/result buffers have warmed to the working set's shapes the whole
/// submit -> execute -> insert -> evict -> get cycle allocates nothing.
TEST(AllocSteadyState, ServiceCacheMissEvictionRecyclesEntries) {
  constexpr int n_pairs = 48;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < n_pairs; ++i) {
    qs.push_back(test::random_codes(96, 100 + i));
    ss.push_back(test::random_codes(96, 200 + i));
  }
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_inflight_batches = 1;
  cfg.cache_capacity = 16;  // far smaller than the working set
  cfg.cache_shards = 1;
  service::aligner svc(cfg);

  align_options o = serial_opts();
  auto sweep = [&] {
    for (int i = 0; i < n_pairs; ++i) {
      auto t = svc.submit(view(qs[i]), view(ss[i]), o);
      ASSERT_EQ(t.get().q_end, 96);
    }
  };
  for (int i = 0; i < 6; ++i) sweep();  // warm slots, arena, cache entries
  ASSERT_NE(svc.cache(), nullptr);
  ASSERT_GT(svc.cache()->stats().evictions, 0u) << "test must evict";
  const auto n = allocs_during([&] {
    for (int i = 0; i < 3; ++i) sweep();
  });
  EXPECT_EQ(n, 0u)
      << "cache miss/insert/evict cycle allocated in steady state";
}

/// The thread pool's job ring must stop growing once it has seen the
/// peak backlog — enqueueing small trivial closures is allocation-free.
TEST(AllocSteadyState, ThreadPoolJobRingSteadyState) {
  parallel::thread_pool pool(1);
  std::atomic<int> count{0};
  auto burst = [&] {
    for (int i = 0; i < 64; ++i) pool.run([&count] { ++count; });
    pool.wait_idle();
  };
  burst();  // ring grows to the 64-job backlog
  const auto cap = pool.ring_capacity();
  const auto n = allocs_during([&] {
    for (int i = 0; i < 5; ++i) burst();
  });
  EXPECT_EQ(n, 0u) << "thread_pool::run allocated on the hot path";
  EXPECT_EQ(pool.ring_capacity(), cap);
  EXPECT_EQ(count.load(), 6 * 64);
}

}  // namespace
}  // namespace anyseq
