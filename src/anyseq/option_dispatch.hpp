#pragma once
/// \file option_dispatch.hpp
/// The runtime-option -> compile-time-policy dispatch steps every
/// per-variant engine clone runs (engine_impl.hpp); the dispatcher
/// (align.cpp) picks the clone and includes none of this.
///
/// Safe to share across baseline and ISA-flagged TUs (tests include it
/// too): each helper is a function template whose only instantiations
/// take TU-local lambda types, so no two translation units can ever emit
/// the same symbol — and inside a variant TU the lambda's enclosing
/// `anyseq::v_*` scope tags the instantiation's name, which the symbol
/// audit checks.

#include <type_traits>

#include "anyseq/anyseq.hpp"
#include "core/gap.hpp"

namespace anyseq {

/// Lift the runtime alignment kind into a compile-time constant.
template <class F>
decltype(auto) with_kind(align_kind k, F&& f) {
  switch (k) {
    case align_kind::global:
      return f(std::integral_constant<align_kind, align_kind::global>{});
    case align_kind::local:
      return f(std::integral_constant<align_kind, align_kind::local>{});
    case align_kind::semiglobal:
      return f(std::integral_constant<align_kind, align_kind::semiglobal>{});
    case align_kind::extension:
      return f(std::integral_constant<align_kind, align_kind::extension>{});
  }
  throw invalid_argument_error("unknown alignment kind");
}

/// Select the gap policy object (linear when gap_open == 0).
template <class F>
decltype(auto) with_gap(const align_options& opt, F&& f) {
  if (opt.gap_open == 0) return f(linear_gap{opt.gap_extend});
  return f(affine_gap{opt.gap_open, opt.gap_extend});
}

/// Select the scoring policy object (matrix overrides match/mismatch).
template <class F>
decltype(auto) with_scoring(const align_options& opt, F&& f) {
  if (opt.matrix.has_value()) return f(*opt.matrix);
  return f(simple_scoring{opt.match, opt.mismatch});
}

}  // namespace anyseq
