#!/usr/bin/env bash
# Symbol audit for the per-variant engine namespaces (docs/DESIGN.md §5).
#
# Scans the demangled symbol table of libanyseq.a and fails if the
# namespace-clone isolation is broken anywhere:
#
#   1. `anyseq::v_avx2::*` symbols may be defined only by the object
#      compiled with the AVX2 flags (engines_avx2.cpp.o); likewise
#      `anyseq::v_avx512::*` / engines_avx512.cpp.o.  This is what makes
#      COMDAT sharing across differently-flagged TUs impossible: no other
#      TU can even emit a colliding name.
#   2. The variant objects must not emit another variant's namespace
#      (e.g. v_scalar code inside the -mavx512bw TU).
#   3. Every lane-dependent engine template symbol in the library must
#      resolve inside exactly one `anyseq::v_*` namespace — an
#      un-namespaced copy means a header leaked out of the per-target set
#      and is again linkable against ISA-flagged code.
#   4. The ISA-flagged TUs may emit NO weak `anyseq::` symbol outside
#      their variant namespace beyond a pinned allowlist of loop-free
#      special members of the shared boundary types (alignment_result /
#      score_result members, exception dtors + vtables + typeinfo) —
#      these cross the `ops` dispatch boundary by design and contain no
#      DP code; baseline-objects-first archive order in
#      src/CMakeLists.txt is kept as defense-in-depth for them.  Any NEW
#      shared-name weak symbol (a header drifting out of the per-target
#      set, a std:: container of a new shared type with real loops)
#      fails the audit here.
#   5. The dispatcher (align.cpp.o) defines no symbol in any
#      `anyseq::v_*` namespace and none in `anyseq::gpusim::` or
#      `anyseq::fpgasim::`: it reaches the engines only through the
#      `engine::ops` tables, so an engine or simulator template
#      instantiated there again fails the audit.
#
# Usage: check_symbol_isolation.sh <path/to/libanyseq.a>
#        check_symbol_isolation.sh --self-test
# Honors $NM (default: nm).
#
# --self-test feeds the audit synthetic symbol tables: a clean one that
# must pass, one with a deliberately-misplaced engine symbol (a
# per-target `workspace` method emitted un-namespaced, weak, by the AVX2
# TU — exactly what a header escaping the per-target set would produce)
# and two with an engine or a simulator symbol defined by the dispatcher
# (rule 5), each of which must fail.  This keeps the audit itself honest: a regex edit that
# silently stops matching cannot go unnoticed.

set -euo pipefail

NM="${NM:-nm}"

# Lane-dependent engine templates — the per-target header surface.
# `workspace::` covers the plan/execute arena (core/workspace.hpp): its
# carve/frame/builder-pool members and nested classes all demangle with
# a `workspace::` component.
ENGINE_RE='tiled_engine|batch_engine|tiled_hirschberg_align|tiled_last_row|relax_tile_scalar|striped_tile|striped_packs|pass_result|border_frontier|tile_geometry|rolling_score|nw_last_row|full_engine|full_align|hirschberg_engine|serial_last_row|hirschberg_align|traceback_walk|alignment_builder|banded_global|locate_align|extension_border_score|workspace::|carve_bytes|rolling_plan_bytes|simd::pack|mpmc_queue|dep_tracker|dynamic_wavefront|bitpar_edit_distance|bitpar_plan_bytes|ragged_chunk|striped_score|striped_plan_bytes|striped_detail'

# Loop-free special members of the shared ops-boundary types (rule 4).
ALLOWED_SHARED_RE='anyseq::(alignment_result|score_result)::|typeinfo (for|name for) anyseq::|vtable for anyseq::|anyseq::(error|invalid_argument_error|unsupported_backend_error|parse_error)::~|std::vector<anyseq::(alignment_result|score_result).*>::~?vector'

# The audit proper: reads a demangled `nm` listing on stdin.
audit() {
  awk -v engine_re="$ENGINE_RE" -v allowed_re="$ALLOWED_SHARED_RE" '
  /\.o:$/ {
    member = $0
    sub(/:$/, "", member)
    sub(/^.*\//, "", member)
    next
  }
  # Defined symbols only: address, one-letter type that is not U/N/w-undef.
  /^[0-9a-fA-F]+ [TtWwVvuBbDdRrGgSs] / {
    type = $2
    name = $0
    sub(/^[0-9a-fA-F]+ [A-Za-z] /, "", name)

    in_avx2   = index(name, "anyseq::v_avx2::")   > 0
    in_avx512 = index(name, "anyseq::v_avx512::") > 0
    in_scalar = index(name, "anyseq::v_scalar::") > 0

    # Rule 1: a variant namespace is emitted only by its own TU.
    if (in_avx2 && member != "engines_avx2.cpp.o") {
      printf "VIOLATION [%s]: v_avx2 symbol outside its TU: %s\n", member, name
      bad++
    }
    if (in_avx512 && member != "engines_avx512.cpp.o") {
      printf "VIOLATION [%s]: v_avx512 symbol outside its TU: %s\n", member, name
      bad++
    }

    # Rule 2: the ISA-flagged TUs emit no foreign-variant symbols.
    if (member == "engines_avx2.cpp.o" && (in_scalar || in_avx512)) {
      printf "VIOLATION [%s]: foreign variant symbol: %s\n", member, name
      bad++
    }
    if (member == "engines_avx512.cpp.o" && (in_scalar || in_avx2)) {
      printf "VIOLATION [%s]: foreign variant symbol: %s\n", member, name
      bad++
    }
    if (member == "engines_scalar.cpp.o" && (in_avx2 || in_avx512)) {
      printf "VIOLATION [%s]: foreign variant symbol: %s\n", member, name
      bad++
    }

    # Rule 3: engine templates live in a variant namespace, nowhere else.
    if (name ~ ("anyseq::.*(" engine_re ")") && \
        !(in_scalar || in_avx2 || in_avx512)) {
      printf "VIOLATION [%s]: engine symbol outside anyseq::v_*: %s\n", \
             member, name
      bad++
    }

    # Rule 4: ISA-flagged TUs emit no weak shared-name anyseq:: symbol
    # beyond the pinned loop-free allowlist.
    if ((member == "engines_avx2.cpp.o" || member == "engines_avx512.cpp.o") \
        && (type == "W" || type == "w" || type == "V" || type == "v") \
        && index(name, "anyseq::") > 0 \
        && !(in_scalar || in_avx2 || in_avx512) \
        && name !~ allowed_re) {
      printf "VIOLATION [%s]: unexpected shared weak symbol: %s\n", \
             member, name
      bad++
    }

    # Rule 5: the dispatcher instantiates no engine and no simulator.
    if (member == "align.cpp.o") {
      seen_dispatcher = 1
      if (index(name, "anyseq::v_") > 0 || index(name, "anyseq::gpusim::") > 0 \
          || index(name, "anyseq::fpgasim::") > 0) {
        printf "VIOLATION [%s]: engine or simulator symbol in the dispatcher: %s\n", \
               member, name
        bad++
      }
    }

    if (in_avx2) n_avx2++
    if (in_avx512) n_avx512++
    if (in_scalar) n_scalar++
    total++
  }
  END {
    printf "symbol audit: %d defined symbols (%d v_scalar, %d v_avx2, %d v_avx512)\n", \
           total, n_scalar, n_avx2, n_avx512
    if (n_avx2 == 0 || n_avx512 == 0 || n_scalar == 0) {
      print "VIOLATION: a variant namespace is empty - audit regex or build broken"
      bad++
    }
    if (!seen_dispatcher) {
      print "VIOLATION: align.cpp.o defines no symbol - rule 5 cannot see the dispatcher"
      bad++
    }
    if (bad > 0) {
      printf "symbol audit FAILED: %d violation(s)\n", bad
      exit 1
    }
    print "symbol audit OK: every engine symbol is confined to its variant namespace"
  }
'
}

# Minimal healthy listing: one symbol per variant in its own TU.
clean_listing() {
  cat <<'EOF'
engines_scalar.cpp.o:
0000000000000000 W anyseq::v_scalar::tiled::tiled_engine<(anyseq::align_kind)0, anyseq::linear_gap, anyseq::simple_scoring, 1>::score()
0000000000000010 W anyseq::v_scalar::workspace::begin_pass()
engines_avx2.cpp.o:
0000000000000000 W anyseq::v_avx2::tiled::tiled_engine<(anyseq::align_kind)0, anyseq::linear_gap, anyseq::simple_scoring, 16>::score()
0000000000000010 W anyseq::v_avx2::workspace::begin_pass()
engines_avx512.cpp.o:
0000000000000000 W anyseq::v_avx512::tiled::tiled_engine<(anyseq::align_kind)0, anyseq::linear_gap, anyseq::simple_scoring, 32>::score()
0000000000000010 W anyseq::v_avx512::workspace::begin_pass()
align.cpp.o:
0000000000000000 T anyseq::aligner::align_into(anyseq::stage::seq_view, anyseq::stage::seq_view, anyseq::alignment_result&)
EOF
}

# Feeds the clean listing plus the extra lines on stdin to the audit;
# exits the self-test if the audit accepts them.
expect_rejected() {
  local what="$1" extra
  extra="$(cat)"
  echo "audit self-test: $what must fail"
  if { clean_listing; printf '%s\n' "$extra"; } | audit; then
    echo "audit SELF-TEST FAILED: $what was NOT caught" >&2
    exit 1
  fi
}

self_test() {
  echo "audit self-test: clean listing must pass"
  if ! clean_listing | audit; then
    echo "audit SELF-TEST FAILED: clean listing was rejected" >&2
    exit 1
  fi

  # A per-target workspace method emitted OUTSIDE any anyseq::v_*
  # namespace, weak, by the AVX2 TU — the signature of an inline
  # definition leaking from the per-target header set into shared code.
  expect_rejected "misplaced inline engine symbol" <<'EOF'
engines_avx2.cpp.o:
0000000000000020 W anyseq::workspace::begin_pass()
EOF
  # The dispatcher instantiating the scalar full engine, or a simulator
  # kernel: legal everywhere else, so only rule 5 catches them.
  expect_rejected "engine symbol in the dispatcher" <<'EOF'
align.cpp.o:
0000000000000020 W anyseq::v_scalar::full_engine<(anyseq::align_kind)0, anyseq::linear_gap, anyseq::simple_scoring>::align_into()
EOF
  expect_rejected "simulator symbol in the dispatcher" <<'EOF'
align.cpp.o:
0000000000000030 W anyseq::fpgasim::finish_model(anyseq::fpgasim::fpga_result&, anyseq::fpgasim::fpga_config const&)
EOF
  echo "audit self-test OK: violations are detected, clean tables pass"
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
  exit 0
fi

LIB="${1:?usage: check_symbol_isolation.sh <libanyseq.a> | --self-test}"

if [ ! -f "$LIB" ]; then
  echo "symbol audit: archive not found: $LIB" >&2
  exit 2
fi

"$NM" -C "$LIB" | audit
