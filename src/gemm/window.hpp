// The ODQ conv operands for implicit GEMM: a zero-bordered NHWC code window
// and a tap-major filter panel.
//
// The paper's accelerator feeds its predictor and executor PEs from
// broadcast line buffers over the feature map
// (src/accel/cyclesim/line_buffer); it never unrolls an im2col. The host
// pipeline does the same. The activation codes are copied once into
//
//   window[b][yp][xp][c]   (N x Hp x Wp x cp int8,  Hp = H + 2*pad,
//                           Wp = W + 2*pad,  cp = C rounded up to 16)
//
// with the pad border and the channels [C, cp) zero. GEMM row r = (oy, ox)
// of batch element b is then `kh` contiguous segments of seg = kw * cp
// codes, one per kernel row; segment ki starts at
//
//   ((b * Hp + oy * stride) * Wp + ox * stride) * cp + ki * Wp * cp
//
// so a row is (start pointer, seg, nseg = kh, pitch = Wp * cp), which is
// exactly the segmented operand of simd::Kernels::dot_block and dot_i8.
// The filter panel stores each filter tap-major, [OC][kh][kw][cp], zero in
// the padded channels, so segment ki of a filter row is contiguous at
// ki * seg. Neighbouring output pixels share most of their segments, the
// way a line buffer shares its rows.
//
// Both ODQ stages read this one code stream: the predictor shifts the
// high digits out in-register, and the Eq. (3) epilogue's full-code dot
// reads the same rows (docs/quantization.md). Zero border and zero padded
// channels add exact zeros to every integer dot.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// Conv geometry of one layer: input channels / spatial size, kernel,
// stride and zero padding.
struct ConvShape {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t kh = 0, kw = 0;
  std::int64_t stride = 1, pad = 0;
};

// Channel quantum of the window and the filter panel: cp is C rounded up
// to one 16-lane block of the SIMD kernels, so every segment is whole
// blocks.
inline constexpr std::int64_t kChannelQuantum = 16;

inline std::int64_t pad_channels(std::int64_t c) {
  return (c + kChannelQuantum - 1) / kChannelQuantum * kChannelQuantum;
}

// A view of the zero-bordered NHWC codes of one conv input; `data` points
// into storage the builder's caller owns.
struct CodeWindow {
  std::int64_t batches = 0;
  ConvShape shape;
  std::int64_t cp = 0;          // channels rounded up to kChannelQuantum
  std::int64_t hp = 0, wp = 0;  // padded spatial size
  std::int64_t oh = 0, ow = 0;  // output spatial size
  const std::int8_t* data = nullptr;
  // row_offset[r]: where GEMM row r = (oy, ox) starts within one image,
  // (oy * stride * Wp + ox * stride) * cp. A table, so the hot loops that
  // fetch one row per sensitive output pay no division.
  std::vector<std::int64_t> row_offset;

  std::int64_t rows() const { return oh * ow; }
  std::int64_t seg() const { return shape.kw * cp; }
  std::int64_t nseg() const { return shape.kh; }
  std::int64_t pitch() const { return wp * cp; }
  // Codes per dot, padded channels included: the depth the kernels run
  // and the int32 budget (simd::kMaxDotDepth) applies to.
  std::int64_t depth() const { return nseg() * seg(); }
  // Bytes of one image, Hp * Wp * cp, and of the window.
  std::int64_t image_size() const { return hp * wp * cp; }
  std::int64_t size() const { return batches * image_size(); }

  // First code of GEMM row r (output pixel r = oy * ow + ox) of batch
  // element b; the row's later segments follow at multiples of pitch().
  const std::int8_t* row(std::int64_t b, std::int64_t r) const {
    return data + b * image_size() +
           row_offset[static_cast<std::size_t>(r)];
  }
};

// Builds the window of `input` [N, C, H, W] for a kh x kw conv with the
// given stride and padding. The codes go into `storage`, which grows when
// it is smaller than the window and never shrinks, so a caller that keeps
// `storage` from one call to the next allocates only when a larger window
// arrives. The returned view is valid until `storage` is next written.
// Parallel over padded input rows; each task writes a disjoint row.
CodeWindow build_code_window(const tensor::TensorI8& input, std::int64_t kh,
                             std::int64_t kw, std::int64_t stride,
                             std::int64_t pad,
                             std::vector<std::int8_t>& storage);

// Filter panel from OIHW weights, tap-major: row f holds filter f as
// [kh][kw][cp], zero in the channels [C, cp).
struct FilterPanel {
  std::int64_t oc = 0, c = 0, kh = 0, kw = 0;
  std::int64_t cp = 0;
  std::vector<std::int8_t> data;

  std::int64_t depth() const { return kh * kw * cp; }
  const std::int8_t* row(std::int64_t f) const {
    return data.data() + static_cast<std::size_t>(f * depth());
  }
  std::int8_t* row(std::int64_t f) {
    return data.data() + static_cast<std::size_t>(f * depth());
  }
};

FilterPanel pack_filter_panel(const tensor::TensorI8& weight);

// Throws std::invalid_argument, prefixed with `who`, unless the window and
// the panel describe the same conv and a dot over a window row stays
// within the int32 budget (simd::kMaxDotDepth on kh * seg).
void check_window_operands(const CodeWindow& win, const FilterPanel& wts,
                           const char* who);

}  // namespace odq::gemm
