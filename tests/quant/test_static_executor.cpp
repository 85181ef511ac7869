#include "quant/static_executor.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "nn/init.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_image(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0.0f, 1.0f);
  return t;
}

TEST(StaticExecutor, OutputShapeMatchesFp32) {
  Tensor in = random_image(Shape{1, 3, 8, 8}, 1);
  util::Rng rng(2);
  Tensor w(Shape{4, 3, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.2f);
  Tensor bias(Shape{4});

  StaticQuantConvExecutor ex(8);
  Tensor out = ex.run(in, w, bias, 1, 1, 0);
  EXPECT_EQ(out.shape(), Shape({1, 4, 8, 8}));
}

TEST(StaticExecutor, ErrorShrinksWithBits) {
  Tensor in = random_image(Shape{1, 3, 8, 8}, 3);
  util::Rng rng(4);
  Tensor w(Shape{4, 3, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.2f);
  Tensor bias(Shape{4});
  Tensor ref = tensor::conv2d_direct(in, w, bias, 1, 1);

  float prev = 1e9f;
  for (int bits : {2, 4, 8, 16}) {
    StaticQuantConvExecutor ex(bits);
    Tensor out = ex.run(in, w, bias, 1, 1, 0);
    const float err = tensor::mean_abs_diff(ref, out);
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

// The executor is exactly a direct conv over per-tensor fake-quantized
// operands: activations at `bits` unsigned levels, weights at `bits`
// linear signed levels. ODQ falls back to this path on degenerate inputs.
TEST(StaticExecutor, MatchesFakeQuantizedDirectConvBitwise) {
  Tensor in = random_image(Shape{2, 5, 9, 9}, 11);
  util::Rng rng(12);
  Tensor w(Shape{7, 5, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.2f);
  Tensor bias(Shape{7});
  for (std::int64_t i = 0; i < bias.numel(); ++i) {
    bias[i] = rng.normal_f(0, 0.1f);
  }

  for (int bits : {4, 8, 16}) {
    for (const Tensor& b : {Tensor{}, bias}) {
      StaticQuantConvExecutor ex(bits);
      const Tensor out = ex.run(in, w, b, /*stride=*/2, /*pad=*/1, 0);
      const Tensor ref = tensor::conv2d_direct(
          fake_quantize_activations(in, bits),
          fake_quantize_weights(w, bits, WeightTransform::kLinear), b, 2, 1);
      ASSERT_EQ(out.shape(), ref.shape());
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(out[i], ref[i])
            << "bits=" << bits << " bias=" << !b.empty() << " at " << i;
      }
    }
  }
}

TEST(StaticExecutor, InstallsIntoModelAndRuns) {
  nn::Model model = nn::make_resnet(8, 10, /*base_width=*/4);
  nn::kaiming_init(model, 7);
  Tensor in = random_image(Shape{2, 3, 16, 16}, 5);

  Tensor fp = model.forward(in, false);
  model.set_conv_executor(std::make_shared<StaticQuantConvExecutor>(8));
  Tensor q8 = model.forward(in, false);
  model.set_conv_executor(nullptr);
  Tensor fp2 = model.forward(in, false);

  EXPECT_EQ(fp.shape(), q8.shape());
  // Quantized output differs from FP32 but not wildly.
  EXPECT_GT(tensor::max_abs_diff(fp, q8), 0.0f);
  // Resetting the executor restores the exact FP32 path.
  EXPECT_EQ(tensor::max_abs_diff(fp, fp2), 0.0f);
}

TEST(StaticExecutor, NameEncodesBits) {
  EXPECT_EQ(StaticQuantConvExecutor(8).name(), "static_int8");
  EXPECT_EQ(StaticQuantConvExecutor(16).name(), "static_int16");
}

}  // namespace
}  // namespace odq::quant
