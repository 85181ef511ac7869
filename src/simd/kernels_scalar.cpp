// Scalar reference kernels — the always-available fallback and the oracle
// every vector backend is differentially tested against.
//
// dot_i8's 4-wide unroll runs over each segment (seg is a multiple of
// kKTileLanes = 16, so there is never a tail) and carries its 4 running
// sums across segments; integer sums reassociate freely, so the unroll
// order is irrelevant to the result, and kMaxDotDepth bounds every partial
// sum, so none of them overflows.
#include "simd/kernels.hpp"

namespace odq::simd {

namespace {

std::int32_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t seg, std::int64_t nseg,
                           std::int64_t pitch) {
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::int64_t s = 0; s < nseg; ++s, a += pitch, b += seg) {
    for (std::int64_t p = 0; p < seg; p += 4) {
      s0 += static_cast<std::int32_t>(a[p]) * b[p];
      s1 += static_cast<std::int32_t>(a[p + 1]) * b[p + 1];
      s2 += static_cast<std::int32_t>(a[p + 2]) * b[p + 2];
      s3 += static_cast<std::int32_t>(a[p + 3]) * b[p + 3];
    }
  }
  return (s0 + s1) + (s2 + s3);
}

// The plain loop: one running sum per tile output.
void dot_block_scalar(const std::int8_t* const* a, const std::int8_t* const* b,
                      std::int64_t seg, std::int64_t nseg, std::int64_t pitch,
                      int shift, std::int32_t* out) {
  for (int i = 0; i < kBlockRows; ++i) {
    for (int j = 0; j < kBlockFilters; ++j) {
      std::int32_t sum = 0;
      for (std::int64_t s = 0; s < nseg; ++s) {
        const std::int8_t* as = a[i] + s * pitch;
        const std::int8_t* bs = b[j] + s * seg;
        for (std::int64_t p = 0; p < seg; ++p) {
          sum += (as[p] >> shift) * (bs[p] >> shift);
        }
      }
      out[i * kBlockFilters + j] = sum;
    }
  }
}

constexpr Kernels kScalarKernels = {"scalar", dot_i8_scalar,
                                    dot_block_scalar};

}  // namespace

const Kernels& scalar_kernels() { return kScalarKernels; }

}  // namespace odq::simd
