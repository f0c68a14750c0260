/// Google-benchmark micro-benchmarks of the hot kernels: the relaxation
/// itself (scalar and pack-typed), the scalar tile kernel, the SIMD
/// block, and the batch engine's inner loop.  These are the numbers a
/// performance engineer watches while tuning; the figure-level benches
/// build on them.

#include <benchmark/benchmark.h>

#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "core/scoring.hpp"
#include "core/full_engine.hpp"
#include "core/rolling.hpp"
#include "simd/pack.hpp"
#include "tiled/batch_engine.hpp"
#include "tiled/tiled_engine.hpp"

namespace {

using namespace anyseq;

constexpr simple_scoring kScoring{2, -1};
constexpr linear_gap kLinear{-1};
constexpr affine_gap kAffine{-2, -1};

bio::sequence make_seq(index_t n, std::uint64_t seed) {
  bio::genome_params p;
  p.length = n;
  p.repeat_rate = 0;
  p.seed = seed;
  return bio::random_genome("s", p);
}

void BM_RollingScoreLinear(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto q = make_seq(n, 1), s = make_seq(n, 2);
  workspace ws;
  for (auto _ : state) {
    auto r = rolling_score<align_kind::global>(q.view(), s.view(), kLinear,
                                               kScoring, ws);
    benchmark::DoNotOptimize(r.score);
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(n) * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RollingScoreLinear)->Arg(512)->Arg(2048);

void BM_RollingScoreAffine(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto q = make_seq(n, 3), s = make_seq(n, 4);
  workspace ws;
  for (auto _ : state) {
    auto r = rolling_score<align_kind::global>(q.view(), s.view(), kAffine,
                                               kScoring, ws);
    benchmark::DoNotOptimize(r.score);
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(n) * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RollingScoreAffine)->Arg(512)->Arg(2048);

template <int Lanes>
void BM_TiledScore(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto q = make_seq(n, 5), s = make_seq(n, 6);
  tiled::tiled_engine<align_kind::global, affine_gap, simple_scoring, Lanes>
      eng(kAffine, kScoring, {256, 256, 1});
  workspace ws;
  for (auto _ : state) {
    auto r = eng.score(q.view(), s.view(), ws);
    benchmark::DoNotOptimize(r.score);
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(n) * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TiledScore<1>)->Arg(4096)->Name("BM_TiledScoreScalar");
BENCHMARK(BM_TiledScore<16>)->Arg(4096)->Name("BM_TiledScoreSimd16");
BENCHMARK(BM_TiledScore<32>)->Arg(4096)->Name("BM_TiledScoreSimd32");

void BM_BatchReads(benchmark::State& state) {
  const auto ref = make_seq(100000, 7);
  const auto data = bio::simulate_read_pairs(ref, 512, {});
  std::vector<tiled::pair_view> pairs;
  for (const auto& p : data)
    pairs.push_back({p.first.view(), p.second.view()});
  tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 16>
      eng(kLinear, kScoring, {1});
  std::uint64_t cells = 0;
  for (const auto& p : pairs)
    cells += static_cast<std::uint64_t>(p.q.size()) * p.s.size();
  workspace ws;
  std::vector<score_result> r(pairs.size());
  for (auto _ : state) {
    eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                   std::span<score_result>(r));
    benchmark::DoNotOptimize(r.data());
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchReads)->UseRealTime();

/// The Myers bit-parallel batch route on a unit-cost option set, against
/// BM_BatchReads' auto-selected baseline.
void BM_BatchReadsBitpar(benchmark::State& state) {
  const auto ref = make_seq(100000, 7);
  const auto data = bio::simulate_read_pairs(ref, 512, {});
  std::vector<tiled::pair_view> pairs;
  for (const auto& p : data)
    pairs.push_back({p.first.view(), p.second.view()});
  tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 16>
      eng(kLinear, simple_scoring{0, -1}, {1});
  std::uint64_t cells = 0;
  for (const auto& p : pairs)
    cells += static_cast<std::uint64_t>(p.q.size()) * p.s.size();
  workspace ws;
  std::vector<score_result> r(pairs.size());
  for (auto _ : state) {
    eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                   std::span<score_result>(r));
    benchmark::DoNotOptimize(r.data());
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchReadsBitpar)->UseRealTime();

void BM_FullEngineWithTraceback(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto q = make_seq(n, 8), s = make_seq(n, 9);
  full_engine<align_kind::global, affine_gap, simple_scoring> eng(kAffine,
                                                                  kScoring);
  workspace ws;
  alignment_result r;
  for (auto _ : state) {
    eng.align_into(q.view(), s.view(), true, ws, r);
    benchmark::DoNotOptimize(r.score);
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(n) * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullEngineWithTraceback)->Arg(512);

void BM_Pack16Relax(benchmark::State& state) {
  using p16 = simd::pack<score16_t, 16>;
  prev_cells<p16> prev{p16::broadcast(10), p16::broadcast(8),
                       p16::broadcast(8), p16::broadcast(5),
                       p16::broadcast(5)};
  auto qc = p16::broadcast(1), sc = p16::broadcast(1);
  for (auto _ : state) {
    auto r = relax<align_kind::global, false, p16, p16, p16>(
        prev, qc, sc, kAffine, kScoring);
    benchmark::DoNotOptimize(r.h);
    prev.diag = r.h;  // serialize iterations
  }
  state.counters["cells/s"] = benchmark::Counter(
      16.0 * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Pack16Relax);

}  // namespace

BENCHMARK_MAIN();
