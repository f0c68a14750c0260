/// \file pack_isa_kernels_avx2.cpp
/// pack_isa_kernels.cpp compiled with -mavx2 alone, into the `v_avx2`
/// target namespace: the AVX2 shapes under the AVX2 library TU's flags.

#include "pack_isa_kernels.cpp"
