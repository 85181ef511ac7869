// Test helpers for the ODQ code window (gemm/window.hpp): a window that
// owns its storage, and plain-loop views of its rows that the tests compare
// against the im2col and direct-conv oracles.
#pragma once

#include <cstdint>
#include <vector>

#include "gemm/window.hpp"
#include "tensor/tensor.hpp"

namespace odq::testwin {

// A code window built into storage of its own. The storage is exactly the
// window's size (a fresh vector grows to exactly what it is asked for), so
// under ASan any read past the window's last byte is reported. Not
// copyable: the view points into `storage`.
struct Window {
  std::vector<std::int8_t> storage;
  gemm::CodeWindow view;

  Window(const tensor::TensorI8& input, std::int64_t kh, std::int64_t kw,
         std::int64_t stride, std::int64_t pad)
      : view(gemm::build_code_window(input, kh, kw, stride, pad, storage)) {}
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
};

// Row r of batch element b as one contiguous tap-major vector of
// win.depth() codes: segment ki copied from win.row(b, r) + ki * pitch.
inline std::vector<std::int8_t> gather_row(const gemm::CodeWindow& win,
                                           std::int64_t b, std::int64_t r) {
  std::vector<std::int8_t> out;
  out.reserve(static_cast<std::size_t>(win.depth()));
  const std::int8_t* row = win.row(b, r);
  for (std::int64_t s = 0; s < win.nseg(); ++s) {
    const std::int8_t* seg = row + s * win.pitch();
    out.insert(out.end(), seg, seg + win.seg());
  }
  return out;
}

// The window's rows rearranged into the [N, C*KH*KW, OH*OW] matrix
// quant::im2col_i8 produces (im2col order (c, ki, kj); padded channels
// dropped).
inline tensor::TensorI8 window_im2col(const gemm::CodeWindow& win) {
  const gemm::ConvShape& g = win.shape;
  const std::int64_t ckk = g.c * g.kh * g.kw;
  const std::int64_t rows = win.rows();
  tensor::TensorI8 out(tensor::Shape{win.batches, ckk, rows});
  for (std::int64_t b = 0; b < win.batches; ++b) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int8_t* row = win.row(b, r);
      for (std::int64_t c = 0; c < g.c; ++c) {
        for (std::int64_t ki = 0; ki < g.kh; ++ki) {
          for (std::int64_t kj = 0; kj < g.kw; ++kj) {
            out[(b * ckk + (c * g.kh + ki) * g.kw + kj) * rows + r] =
                row[ki * win.pitch() + kj * win.cp + c];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace odq::testwin
