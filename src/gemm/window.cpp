#include "gemm/window.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "simd/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::TensorI8;

namespace {

// Padded rows per window-build task: enough that a task copies ~32 KB, so a
// batch-1 window builds inline and a batch-16 one fans out.
std::int64_t window_grain(std::int64_t line_bytes) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 15) / line_bytes);
}

}  // namespace

CodeWindow build_code_window(const TensorI8& input, std::int64_t kh,
                             std::int64_t kw, std::int64_t stride,
                             std::int64_t pad,
                             std::vector<std::int8_t>& storage) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("gemm::build_code_window: input must be NCHW");
  }
  if (kh <= 0 || kw <= 0 || stride <= 0 || pad < 0) {
    throw std::invalid_argument("gemm::build_code_window: bad conv geometry");
  }
  CodeWindow win;
  win.batches = s[0];
  win.shape = ConvShape{s[1], s[2], s[3], kh, kw, stride, pad};
  win.oh = tensor::conv_out_dim(s[2], kh, stride, pad);
  win.ow = tensor::conv_out_dim(s[3], kw, stride, pad);
  if (win.oh <= 0 || win.ow <= 0) {
    throw std::invalid_argument(
        "gemm::build_code_window: kernel larger than padded input");
  }
  win.cp = pad_channels(s[1]);
  win.hp = s[2] + 2 * pad;
  win.wp = s[3] + 2 * pad;
  win.row_offset.resize(static_cast<std::size_t>(win.rows()));
  for (std::int64_t oy = 0; oy < win.oh; ++oy) {
    for (std::int64_t ox = 0; ox < win.ow; ++ox) {
      win.row_offset[static_cast<std::size_t>(oy * win.ow + ox)] =
          (oy * stride * win.wp + ox * stride) * win.cp;
    }
  }
  const auto need = static_cast<std::size_t>(win.size());
  if (storage.size() < need) storage.resize(need);
  win.data = storage.data();

  const std::int64_t c = s[1], h = s[2], w = s[3], cp = win.cp;
  const std::int64_t hp = win.hp, line = win.pitch();
  const std::int8_t* src = input.data();
  std::int8_t* dst = storage.data();
  util::parallel_for(
      win.batches * hp,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          std::int8_t* out = dst + t * line;
          const std::int64_t b = t / hp;
          const std::int64_t y = t - b * hp - pad;
          if (y < 0 || y >= h) {
            std::memset(out, 0, static_cast<std::size_t>(line));
            continue;
          }
          // Every byte of the row is written: the zero border and padded
          // channels here, the codes below.
          if (cp != c) {
            std::memset(out, 0, static_cast<std::size_t>(line));
          } else {
            std::memset(out, 0, static_cast<std::size_t>(pad * cp));
            std::memset(out + (pad + w) * cp, 0,
                        static_cast<std::size_t>(pad * cp));
          }
          std::int8_t* pixels = out + pad * cp;
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const std::int8_t* in = src + ((b * c + ch) * h + y) * w;
            std::int8_t* o = pixels + ch;
            for (std::int64_t x = 0; x < w; ++x) o[x * cp] = in[x];
          }
        }
      },
      window_grain(line));
  return win;
}

FilterPanel pack_filter_panel(const TensorI8& weight) {
  const Shape& ws = weight.shape();
  if (ws.rank() != 4) {
    throw std::invalid_argument("gemm::pack_filter_panel: weight must be OIHW");
  }
  FilterPanel p;
  p.oc = ws[0];
  p.c = ws[1];
  p.kh = ws[2];
  p.kw = ws[3];
  p.cp = pad_channels(p.c);
  p.data.assign(static_cast<std::size_t>(p.oc * p.depth()), 0);
  const std::int8_t* src = weight.data();
  for (std::int64_t f = 0; f < p.oc; ++f) {
    std::int8_t* row = p.row(f);
    for (std::int64_t ch = 0; ch < p.c; ++ch) {
      for (std::int64_t ki = 0; ki < p.kh; ++ki) {
        for (std::int64_t kj = 0; kj < p.kw; ++kj) {
          row[(ki * p.kw + kj) * p.cp + ch] =
              src[((f * p.c + ch) * p.kh + ki) * p.kw + kj];
        }
      }
    }
  }
  return p;
}

void check_window_operands(const CodeWindow& win, const FilterPanel& wts,
                           const char* who) {
  if (win.shape.c != wts.c || win.shape.kh != wts.kh ||
      win.shape.kw != wts.kw) {
    throw std::invalid_argument(std::string(who) +
                                ": window and filter panel differ in "
                                "channels or kernel size");
  }
  if (win.depth() > simd::kMaxDotDepth) {
    throw std::invalid_argument(std::string(who) +
                                ": depth exceeds the int32 accumulator "
                                "budget");
  }
}

}  // namespace odq::gemm
