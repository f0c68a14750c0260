/// Command-line aligner: the downstream-user face of the library.
///
///   anyseq_align [options] QUERY.fa SUBJECT.fa
///
/// Aligns the first record of QUERY.fa against the first record of
/// SUBJECT.fa and prints score, CIGAR, coordinates and (optionally) the
/// gapped alignment.
///
/// Options:
///   --kind global|local|semiglobal   (default global)
///   --match N --mismatch N           (default 2 / -1)
///   --gap-open N --gap-extend N      (default 0 / -1; open != 0 -> affine)
///   --backend scalar|avx2|avx512|auto
///   --threads N                      (default hardware)
///   --score-only                     skip traceback
///   --show-alignment                 print the gapped strings

#include <cstdio>
#include <cstring>
#include <string>

#include "anyseq/anyseq.hpp"
#include "bio/fasta.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: anyseq_align [options] QUERY.fa SUBJECT.fa\n"
               "run with --help for the option list in the header.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  anyseq::align_options opt;
  opt.want_alignment = true;
  bool show_alignment = false;
  std::string query_path, subject_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--kind") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "global") == 0) opt.kind = anyseq::align_kind::global;
      else if (std::strcmp(v, "local") == 0) opt.kind = anyseq::align_kind::local;
      else if (std::strcmp(v, "semiglobal") == 0) opt.kind = anyseq::align_kind::semiglobal;
      else return usage();
    } else if (a == "--match") {
      opt.match = std::atoi(next());
    } else if (a == "--mismatch") {
      opt.mismatch = std::atoi(next());
    } else if (a == "--gap-open") {
      opt.gap_open = std::atoi(next());
    } else if (a == "--gap-extend") {
      opt.gap_extend = std::atoi(next());
    } else if (a == "--threads") {
      opt.threads = std::atoi(next());
    } else if (a == "--backend") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "scalar") == 0) opt.exec = anyseq::backend::scalar;
      else if (std::strcmp(v, "avx2") == 0) opt.exec = anyseq::backend::simd_avx2;
      else if (std::strcmp(v, "avx512") == 0) opt.exec = anyseq::backend::simd_avx512;
      else if (std::strcmp(v, "auto") == 0) opt.exec = anyseq::backend::auto_select;
      else return usage();
    } else if (a == "--score-only") {
      opt.want_alignment = false;
    } else if (a == "--show-alignment") {
      show_alignment = true;
    } else if (a == "--help") {
      return usage();
    } else if (query_path.empty()) {
      query_path = a;
    } else if (subject_path.empty()) {
      subject_path = a;
    } else {
      return usage();
    }
  }
  if (query_path.empty() || subject_path.empty()) return usage();

  try {
    const auto qs = anyseq::bio::read_fasta_file(query_path);
    const auto ss = anyseq::bio::read_fasta_file(subject_path);
    if (qs.empty() || ss.empty()) {
      std::fprintf(stderr, "error: empty FASTA input\n");
      return 1;
    }
    const auto& q = qs.front();
    const auto& s = ss.front();
    const auto r = anyseq::align(q.view(), s.view(), opt);

    std::printf("query   : %s (%lld bp)\n", q.name().c_str(),
                static_cast<long long>(q.size()));
    std::printf("subject : %s (%lld bp)\n", s.name().c_str(),
                static_cast<long long>(s.size()));
    std::printf("kind    : %s   backend: %s\n", anyseq::to_string(opt.kind),
                anyseq::to_string(opt.exec));
    std::printf("score   : %d\n", r.score);
    if (r.has_alignment) {
      std::printf("region  : q[%lld,%lld) x s[%lld,%lld)\n",
                  static_cast<long long>(r.q_begin),
                  static_cast<long long>(r.q_end),
                  static_cast<long long>(r.s_begin),
                  static_cast<long long>(r.s_end));
      std::printf("cigar   : %s\n", r.cigar.c_str());
      if (show_alignment) {
        constexpr std::size_t width = 70;
        for (std::size_t off = 0; off < r.q_aligned.size(); off += width) {
          std::printf("\n  %s\n  %s\n",
                      r.q_aligned.substr(off, width).c_str(),
                      r.s_aligned.substr(off, width).c_str());
        }
      }
    }
  } catch (const anyseq::error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
