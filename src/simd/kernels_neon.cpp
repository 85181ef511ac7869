// NEON (AArch64) backend: the same widen-accumulate scheme as the AVX2
// kernels, built only where __ARM_NEON is baseline (no per-TU flag needed
// on AArch64). On every other target this TU is the nullptr stub and the
// `simd`-labelled tests skip the backend cleanly.
//
// Per kKTile (16-lane) block:
//   1. vld1q_s8 both operands,
//   2. vmull_s8 low/high halves: exact 8 x int16 products (|p| <= 2^14),
//   3. vpadalq_s16: pairwise-add the int16 products into 4 x int32 lanes —
//      each block adds at most 4 * 2^14 = 2^16 per lane, so the int32
//      accumulator absorbs far more depth than any layer reaches (the
//      kMaxDotBlocks budget in kernels.hpp is the conservative bound),
//   4. vaddvq_s32 to reduce (or vpadalq_s32 into int64x2 for acc64).
#include "simd/kernels.hpp"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace odq::simd {

namespace {

// 4 x int32 of exact pairwise sums for one 16-lane block.
inline int32x4_t block_sums(const std::int8_t* a, const std::int8_t* b) {
  const int8x16_t va = vld1q_s8(a);
  const int8x16_t vb = vld1q_s8(b);
  const int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
  const int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
  return vaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi));
}

std::int32_t dot_i8_neon(const std::int8_t* a, const std::int8_t* b,
                         std::int64_t kp) {
  int32x4_t acc = vdupq_n_s32(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    acc = vaddq_s32(acc, block_sums(a + p, b + p));
  }
  return vaddvq_s32(acc);
}

std::int64_t dot_i8_acc64_neon(const std::int8_t* a, const std::int8_t* b,
                               std::int64_t kp) {
  int64x2_t acc = vdupq_n_s64(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    // Widen each block's exact int32 sums into int64 lanes so the running
    // sum stays exact past int32 headroom.
    acc = vpadalq_s32(acc, block_sums(a + p, b + p));
  }
  return vaddvq_s64(acc);
}

// Digit dot: widen each operand to int16 (vmovl_s8), shift the lanes right
// by `shift` (vshlq_s16 by a negative count is an arithmetic right shift; a
// count of 0 leaves the codes as they are), then multiply-accumulate the
// int16 digits into 4 x int32 lanes (vmlal_s16). Each block adds at most
// 4 * 2^14 = 2^16 per lane, the same bound as dot_i8_neon above.
std::int32_t dot_digits_neon(const std::int8_t* a, const std::int8_t* b,
                             std::int64_t kp, int shift) {
  const int16x8_t neg = vdupq_n_s16(static_cast<std::int16_t>(-shift));
  int32x4_t acc = vdupq_n_s32(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    const int8x16_t va = vld1q_s8(a + p);
    const int8x16_t vb = vld1q_s8(b + p);
    const int16x8_t alo = vshlq_s16(vmovl_s8(vget_low_s8(va)), neg);
    const int16x8_t ahi = vshlq_s16(vmovl_s8(vget_high_s8(va)), neg);
    const int16x8_t blo = vshlq_s16(vmovl_s8(vget_low_s8(vb)), neg);
    const int16x8_t bhi = vshlq_s16(vmovl_s8(vget_high_s8(vb)), neg);
    acc = vmlal_s16(acc, vget_low_s16(alo), vget_low_s16(blo));
    acc = vmlal_s16(acc, vget_high_s16(alo), vget_high_s16(blo));
    acc = vmlal_s16(acc, vget_low_s16(ahi), vget_low_s16(bhi));
    acc = vmlal_s16(acc, vget_high_s16(ahi), vget_high_s16(bhi));
  }
  return vaddvq_s32(acc);
}

// The 2 x 4 tile built from the single digit dot, one call per output.
void dot_block_neon(const std::int8_t* const* a, const std::int8_t* const* b,
                    std::int64_t kp, int shift, std::int32_t* out) {
  for (int i = 0; i < kBlockRows; ++i) {
    for (int j = 0; j < kBlockFilters; ++j) {
      out[i * kBlockFilters + j] = dot_digits_neon(a[i], b[j], kp, shift);
    }
  }
}

constexpr Kernels kNeonKernels = {"neon", dot_i8_neon, dot_i8_acc64_neon,
                                  dot_block_neon};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace odq::simd

#else  // not an AArch64+NEON build.

namespace odq::simd {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace odq::simd

#endif
