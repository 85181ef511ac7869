// Packed im2col operands for the shared conv-GEMM core.
//
// Every quantized conv scheme in this library (ODQ predictor + result
// generation, DRQ, static INT-N, and the FP32-surrogate executors) reduces
// to the same computation: an im2col matrix [OH*OW, C*KH*KW] per batch
// element multiplied against a filter panel [OC, C*KH*KW]. The structs here
// hold both operands in one cache-blocked layout shared by all of them:
//
//   * Rows are *output pixels* (receptive fields), stored contiguously —
//     the transpose of the [CKK, OHW] matrix quant::im2col_i8 produces.
//     A GEMM dot product then reads two contiguous byte runs, and the
//     mask-aware sparse epilogue can gather an arbitrary subset of output
//     pixels with perfect locality (one contiguous row per sensitive
//     output, no per-element branching).
//   * The depth K = C*KH*KW is zero-padded to a multiple of kKTile so the
//     microkernels never handle a remainder. Zero entries contribute
//     nothing to any integer partial product, so padding is invisible to
//     the accumulators (and to float sums, modulo the sign of zero).
//   * ODQ packs the same single int8 code plane and filter panel as static
//     INT8 — no digit planes are ever stored. ODQ codes nest their high
//     digit inside the full code (v == ((v >> L) << L) + (v & (2^L - 1))),
//     so the predictor extracts I_HBS / W_HBS in-register with an
//     arithmetic shift (simd::Kernels::dot_block), and the Eq. (3)
//     epilogue, being linear in the codes, is one full-code dot.
//
// Packing is lossless: unpack_im2col_i8 recovers exactly the im2col matrix
// the scalar reference paths compute, which the tests/gemm round-trip fuzz
// suite asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// Depth-padding quantum: K is rounded up to a multiple of this so the
// microkernel's unrolled accumulator loop needs no tail handling. 16 int8
// lanes is one SSE register / one NEON quad — the lane block of every
// src/simd/ kernel.
inline constexpr std::int64_t kKTile = 16;

// Output-pixel block of the im2col packers: one pack task writes this many
// receptive-field rows of one batch element.
inline constexpr std::int64_t kRowTile = 64;

// Filters per INT-GEMM task and per register tile: a task owns kOcTile
// filter rows and walks every output pixel of one batch element in pairs.
// The simd::Kernels::dot_block tile widens each of its 2 activation rows
// and kOcTile filter rows once per 16-lane block and reuses them across all
// 2 x kOcTile outputs. A last block with fewer filters repeats its last
// filter row and drops the duplicate outputs.
inline constexpr std::int64_t kOcTile = 4;

inline std::int64_t pad_k(std::int64_t k) {
  return (k + kKTile - 1) / kKTile * kKTile;
}

// One packed im2col operand (full codes, or floats).
// data[(b * rows + r) * k_padded + p] is entry p of output pixel r of batch
// element b; entries beyond `k` are zero.
template <typename T>
struct PackedIm2colT {
  std::int64_t batches = 0;
  std::int64_t rows = 0;      // OH * OW
  std::int64_t k = 0;         // C * KH * KW (logical depth)
  std::int64_t k_padded = 0;  // k rounded up to kKTile
  std::int64_t oh = 0, ow = 0;
  std::vector<T> data;

  const T* row(std::int64_t b, std::int64_t r) const {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
  T* row(std::int64_t b, std::int64_t r) {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
};

using PackedIm2col = PackedIm2colT<std::int8_t>;
using PackedIm2colF = PackedIm2colT<float>;

// A packed filter panel: row f holds filter f's C*KH*KW taps in im2col
// order, zero-padded to k_padded.
template <typename T>
struct PackedWeightsT {
  std::int64_t oc = 0;
  std::int64_t k = 0;
  std::int64_t k_padded = 0;
  std::vector<T> data;

  const T* row(std::int64_t f) const {
    return data.data() + static_cast<std::size_t>(f * k_padded);
  }
  T* row(std::int64_t f) {
    return data.data() + static_cast<std::size_t>(f * k_padded);
  }
};

using PackedWeights = PackedWeightsT<std::int8_t>;
using PackedWeightsF = PackedWeightsT<float>;

// --- Packers -------------------------------------------------------------

// Full-code int8 activations [N,C,H,W] -> packed receptive-field rows.
PackedIm2col pack_im2col_i8(const tensor::TensorI8& input, std::int64_t kh,
                            std::int64_t kw, std::int64_t stride,
                            std::int64_t pad);

// Float activations (DRQ / static fake-quantized baselines / FP32).
PackedIm2colF pack_im2col_f32(const tensor::Tensor& input, std::int64_t kh,
                              std::int64_t kw, std::int64_t stride,
                              std::int64_t pad);

// Filter panels from OIHW weights.
PackedWeights pack_weights_i8(const tensor::TensorI8& weight);
PackedWeightsF pack_weights_f32(const tensor::Tensor& weight);

// --- Unpackers (round-trip validation) -----------------------------------

// Recover the [N, C*KH*KW, OH*OW] matrix quant::im2col_i8 would produce
// (transposes the packed rows back, drops the depth padding).
tensor::TensorI8 unpack_im2col_i8(const PackedIm2col& packed, std::int64_t c,
                                  std::int64_t kh, std::int64_t kw);

}  // namespace odq::gemm
