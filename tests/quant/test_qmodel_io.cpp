#include "quant/qmodel_io.hpp"

#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cstdio>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

class QModelIoTest : public ::testing::Test {
 protected:
  std::string path_ = odq::testutil::temp_path("odq_qmodel_test.bin");
  void TearDown() override { std::remove(path_.c_str()); }

  static Tensor random_image(Shape shape, std::uint64_t seed) {
    util::Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
    return t;
  }
};

TEST_F(QModelIoTest, RoundTripReproducesQuantizedForward) {
  nn::Model a = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(a, 1);
  save_quantized_model(a, path_);

  nn::Model b = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(b, 2);
  load_quantized_model(b, path_);

  // Model b's conv weights are the dequantized INT4 codes of a's weights:
  // a's INT4-quantized forward equals b's FP32 forward exactly, because
  // fake-quantizing already-quantized values is the identity.
  Tensor x = random_image(Shape{2, 3, 16, 16}, 3);
  a.set_conv_executor(std::make_shared<StaticQuantConvExecutor>(4));
  // Match activation handling: both sides quantize activations, so install
  // the same executor on b too.
  b.set_conv_executor(std::make_shared<StaticQuantConvExecutor>(4));
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  EXPECT_LT(tensor::max_abs_diff(ya, yb), 1e-5f);
}

TEST_F(QModelIoTest, NonConvParamsPreservedExactly) {
  nn::Model a = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(a, 4);
  save_quantized_model(a, path_);
  nn::Model b = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(b, 5);
  load_quantized_model(b, path_);

  auto pa = a.params(), pb = b.params();
  const auto conv_count = a.convs().size();
  std::size_t exact = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (tensor::max_abs_diff(pa[i]->value, pb[i]->value) == 0.0f) ++exact;
  }
  // Everything except the conv weight tensors round-trips bit-exactly.
  EXPECT_EQ(exact, pa.size() - conv_count);
}

TEST_F(QModelIoTest, CheckpointSmallerThanFloat) {
  nn::Model m = nn::make_resnet20(10, 8);
  nn::kaiming_init(m, 6);
  const std::int64_t qbytes = save_quantized_model(m, path_);
  const std::int64_t fbytes = m.num_parameters() * 4;
  // Conv weights dominate ResNet-20, so INT4 packing should get well below
  // half the float size.
  EXPECT_LT(qbytes, fbytes / 2);
  EXPECT_EQ(qbytes, quantized_checkpoint_bytes(m, 4));
}

TEST_F(QModelIoTest, ArchitectureMismatchRejected) {
  nn::Model a = nn::make_lenet5();
  nn::kaiming_init(a, 7);
  save_quantized_model(a, path_);
  nn::Model b = nn::make_resnet(8, 10, 4);
  EXPECT_THROW(load_quantized_model(b, path_), std::runtime_error);
}

TEST_F(QModelIoTest, GarbageFileRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    const char junk[] = "nope";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  nn::Model m = nn::make_lenet5();
  EXPECT_THROW(load_quantized_model(m, path_), std::runtime_error);
}

TEST_F(QModelIoTest, BitWidthOptionRespected) {
  nn::Model m = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(m, 8);
  QModelSaveOptions o2;
  o2.weight_bits = 2;
  const std::int64_t b2 = save_quantized_model(m, path_, o2);
  QModelSaveOptions o4;
  o4.weight_bits = 4;
  const std::int64_t b4 = save_quantized_model(m, path_, o4);
  EXPECT_LT(b2, b4);
}

TEST(QModelIo, SaveToBadPathThrows) {
  nn::Model m = nn::make_lenet5();
  EXPECT_THROW(save_quantized_model(m, "/nonexistent_dir_xyz/q.bin"),
               std::runtime_error);
  EXPECT_THROW(load_quantized_model(m, "/nonexistent_dir_xyz/q.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace odq::quant
