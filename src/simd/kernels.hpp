// Bit-exact SIMD dot-product kernels for the packed conv-GEMM core.
//
// Every kernel here computes an *integer* sum whose value is independent of
// accumulation order, so the scalar reference, the AVX2 backend, and the
// NEON backend are interchangeable bit-for-bit — the `simd`-labelled
// differential suite (tests/simd/) sweeps every lane-boundary shape across
// all available backends and asserts exactly that.
//
// Contract shared by all three entry points:
//   * `kp` is the padded depth of a packed row (gemm/packed.hpp): a multiple
//     of kKTile (16), so vector loops never handle a remainder and scalar
//     unrolls never need a tail.
//   * Operands are full int8 codes — one packed plane per operand, no digit
//     planes. dot_block extracts the high digit v >> shift in-register;
//     products fit int16 (|a*b| <= 128*128 = 2^14) and the int32
//     accumulators have headroom for any depth this library reaches (see
//     kMaxDotBlocks below).
//   * Padding lanes (entries in [k, kp)) are zero in at least one operand,
//     so they contribute exact zeros — kernels multiply them unconditionally
//     (0 >> shift is still 0).
//
// The kernels are reached through the per-backend tables in dispatch.hpp;
// hot loops fetch the active table once per GEMM call, not per dot product.
#pragma once

#include <cstdint>

namespace odq::simd {

// Overflow budget, derived from the kKTile = 16 packing quantum: each
// 16-lane block contributes at most 2 products of |a|,|b| <= 128 per int32
// vector lane (the widen-to-int16 + pairwise-multiply-accumulate step every
// backend uses), so a lane stays exact for up to kMaxDotBlocks blocks.
inline constexpr std::int64_t kKTileLanes = 16;
inline constexpr std::int64_t kMaxLaneProduct = 128 * 128;  // |int8 * int8|
inline constexpr std::int64_t kMaxDotBlocks =
    ((std::int64_t{1} << 31) - 1) / (2 * kMaxLaneProduct);
static_assert(kMaxDotBlocks * 2 * kMaxLaneProduct <= (std::int64_t{1} << 31) - 1,
              "int32 vector lane must absorb kMaxDotBlocks kKTile blocks");
static_assert(2 * kMaxLaneProduct <= 32767 + 1,
              "a widened int16 product pair must not saturate a madd lane");

// Maximum packed depth any dot kernel accepts while the int32 accumulation
// stays exact (~1M taps; the largest layer in the model zoo is ~4.6k).
inline constexpr std::int64_t kMaxDotDepth = kMaxDotBlocks * kKTileLanes;

// sum_p a[p] * b[p] over kp int8 entries, exact in int32.
using DotI8Fn = std::int32_t (*)(const std::int8_t* a, const std::int8_t* b,
                                 std::int64_t kp);

// Same sum, exact in int64 regardless of int32 headroom: vector backends
// widen every kKTile block's int32 partial sums into int64 lanes, so this
// stays bit-identical to a scalar int64 accumulation even where an int32
// sum would wrap.
using DotI8Acc64Fn = std::int64_t (*)(const std::int8_t* a,
                                      const std::int8_t* b, std::int64_t kp);

// The register-blocked GEMM kernel: a 2-row x 4-filter tile of digit dots
//   out[i * kBlockFilters + j] = sum_p (a[i][p] >> shift) * (b[j][p] >> shift)
// (arithmetic shifts) for rows i in [0, 2) and filters j in [0, 4). With
// shift = N_LBS it is the I_HBS x W_HBS term of Eq. (3), read from the same
// code plane the full-code dot reads; shift 0 is the full-code dot itself.
// Contract: 0 <= shift <= 7. A shifted digit satisfies |a >> s| <= 128, so
// every product stays within the int8 x int8 bound and kMaxDotDepth holds.
// Each operand row is widened (and shifted) once per lane block and reused
// across the whole tile; callers with fewer than 2 rows or 4 filters repeat
// the last valid pointer and discard the duplicate outputs.
inline constexpr int kBlockRows = 2;
inline constexpr int kBlockFilters = 4;
using DotBlockFn = void (*)(const std::int8_t* const* a,
                            const std::int8_t* const* b, std::int64_t kp,
                            int shift, std::int32_t* out);

// One backend's kernel table.
struct Kernels {
  const char* name;
  DotI8Fn dot_i8;
  DotI8Acc64Fn dot_i8_acc64;
  DotBlockFn dot_block;
};

// The always-available scalar reference (kernels_scalar.cpp).
const Kernels& scalar_kernels();

// Vector backends. Each returns nullptr when its TU was not built with the
// matching ISA (kernels_avx2.cpp is the only TU compiled with -mavx2, so a
// plain x86-64 binary still loads; kernels_neon.cpp needs __ARM_NEON).
// Availability at runtime additionally requires CPU support — dispatch.hpp
// owns that check.
const Kernels* avx2_kernels();
const Kernels* neon_kernels();

}  // namespace odq::simd
