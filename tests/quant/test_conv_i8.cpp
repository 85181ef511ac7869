#include <gtest/gtest.h>

#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;

TensorI8 random_codes(Shape shape, std::uint64_t seed, int lo, int hi) {
  util::Rng rng(seed);
  TensorI8 t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int8_t>(rng.uniform_int(lo, hi));
  }
  return t;
}

TEST(ConvI8, MatchesFloatConvOnIntegerData) {
  TensorI8 in = random_codes(Shape{1, 2, 6, 6}, 1, 0, 15);
  TensorI8 w = random_codes(Shape{3, 2, 3, 3}, 2, -7, 7);
  TensorI32 out = conv2d_i8(in, w, 1, 1);

  Tensor inf(in.shape()), wf(w.shape());
  for (std::int64_t i = 0; i < in.numel(); ++i) inf[i] = in[i];
  for (std::int64_t i = 0; i < w.numel(); ++i) wf[i] = w[i];
  Tensor bias;
  Tensor ref = tensor::conv2d_direct(inf, wf, bias, 1, 1);

  ASSERT_EQ(out.shape(), ref.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int32_t>(ref[i]));
  }
}

TEST(ConvI8, StridedGeometry) {
  TensorI8 in = random_codes(Shape{2, 1, 8, 8}, 3, 0, 15);
  TensorI8 w = random_codes(Shape{2, 1, 3, 3}, 4, -7, 7);
  TensorI32 out = conv2d_i8(in, w, 2, 1);
  EXPECT_EQ(out.shape(), Shape({2, 2, 4, 4}));
}

TEST(ConvI8, ChannelMismatchThrows) {
  TensorI8 in(Shape{1, 2, 4, 4});
  TensorI8 w(Shape{1, 3, 3, 3});
  EXPECT_THROW(conv2d_i8(in, w, 1, 1), std::invalid_argument);
}

TEST(Im2colI8, MatchesFloatIm2col) {
  TensorI8 in = random_codes(Shape{1, 2, 6, 6}, 11, -8, 7);
  Tensor inf(in.shape());
  for (std::int64_t i = 0; i < in.numel(); ++i) inf[i] = in[i];
  TensorI8 ci = im2col_i8(in, 3, 3, 1, 1);
  Tensor cf = tensor::im2col(inf, 3, 3, 1, 1);
  ASSERT_EQ(ci.numel(), cf.numel());
  for (std::int64_t i = 0; i < ci.numel(); ++i) {
    ASSERT_EQ(static_cast<float>(ci[i]), cf[i]);
  }
}

TEST(ConvI8, BitSplitDecompositionMatchesFullConv) {
  // conv(a, b) == conv(ah, bh)<<4 + (conv(ah, bl) + conv(al, bh))<<2
  //             + conv(al, bl)  -- Eq. (3) lifted to whole convolutions.
  TensorI8 in = random_codes(Shape{1, 3, 5, 5}, 7, 0, 15);
  TensorI8 w = random_codes(Shape{4, 3, 3, 3}, 8, -8, 7);
  SplitTensor si = split_codes(in);
  SplitTensor sw = split_codes(w);

  const TensorI32 full = conv2d_i8(in, w, 1, 1);
  const TensorI32 hh = conv2d_i8(si.high, sw.high, 1, 1);
  const TensorI32 hl = conv2d_i8(si.high, sw.low, 1, 1);
  const TensorI32 lh = conv2d_i8(si.low, sw.high, 1, 1);
  const TensorI32 ll = conv2d_i8(si.low, sw.low, 1, 1);

  for (std::int64_t i = 0; i < full.numel(); ++i) {
    const std::int32_t sum = (hh[i] << 4) + ((hl[i] + lh[i]) << 2) + ll[i];
    EXPECT_EQ(sum, full[i]) << "at " << i;
  }
}

}  // namespace
}  // namespace odq::quant
