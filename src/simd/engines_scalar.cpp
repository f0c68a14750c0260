/// \file engines_scalar.cpp
/// The scalar engine variant (`anyseq::v_scalar`): multithreaded scalar
/// tiles, 1 lane.  Always compiled with the toolchain's baseline flags —
/// this TU is the portable fallback every build ships, regardless of
/// architecture.

#include "simd/targets.hpp"

#define ANYSEQ_TARGET ANYSEQ_TARGET_SCALAR
#include "anyseq/engine_impl.hpp"

namespace anyseq::engine {

const ops& ops_x1() { return v_scalar::engine::variant_ops(); }

}  // namespace anyseq::engine
