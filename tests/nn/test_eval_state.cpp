// An eval forward writes no layer member: backward caches fill only in
// train mode, so threads can share one model for inference, and
// nn::conv_inputs is the one way to read layer inputs after an eval pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/odq.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "util/rng.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_input(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 1);
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::shared_ptr<ConvExecutor> odq_executor() {
  core::OdqConfig cfg;
  cfg.threshold = 0.15f;
  return std::make_shared<core::OdqConvExecutor>(cfg);
}

TEST(EvalForward, ExecutorForwardLeavesNoBackwardCache) {
  Conv2d conv(3, 4, 3, 1, 1);
  conv.weight().value = random_input(Shape{4, 3, 3, 3}, 9);
  conv.set_executor(odq_executor());
  const Tensor y = conv.forward(random_input(Shape{1, 3, 6, 6}, 1), false);
  try {
    (void)conv.backward(Tensor(y.shape()));
    FAIL() << "backward after an eval forward must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("backward before forward"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConvInputs, CapturesEachConvInputAndLeavesFp32) {
  Model model = make_lenet5(10);
  kaiming_init(model, 3);
  const Tensor x = random_input(Shape{2, 1, 28, 28}, 4);
  const std::vector<Tensor> inputs = conv_inputs(model, x, odq_executor());
  ASSERT_EQ(inputs.size(), model.convs().size());
  EXPECT_TRUE(bitwise_equal(inputs[0], x));
  // LeNet-5's second conv reads the 6-channel pooled map.
  EXPECT_EQ(inputs[1].shape(), Shape({2, 6, 14, 14}));
  for (Conv2d* conv : model.convs()) EXPECT_EQ(conv->executor(), nullptr);
  EXPECT_THROW(conv_inputs(model, x, nullptr), std::invalid_argument);
}

// 4 threads run eval forwards on one model under one ODQ executor; each
// output must equal the serial run's bit for bit.
void expect_concurrent_eval_matches_serial(Model model, Shape chw) {
  kaiming_init(model, 5);
  model.assign_conv_ids();
  model.set_conv_executor(odq_executor());
  constexpr int kInputs = 8;
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> serial;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(Shape{1, chw[0], chw[1], chw[2]},
                                  100 + static_cast<std::uint64_t>(i)));
    serial.push_back(model.forward(inputs.back(), false));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kInputs; ++k) {
        const int i = (t + k) % kInputs;
        if (!bitwise_equal(model.forward(inputs[i], false), serial[i])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentEval, LeNet5MatchesSerial) {
  expect_concurrent_eval_matches_serial(make_lenet5(10), Shape{1, 28, 28});
}

TEST(ConcurrentEval, ResNet20MatchesSerial) {
  expect_concurrent_eval_matches_serial(make_resnet(20, 10, 4),
                                        Shape{3, 32, 32});
}

TEST(ConcurrentEval, DenseNetMatchesSerial) {
  expect_concurrent_eval_matches_serial(make_densenet(10, 4, 2),
                                        Shape{3, 32, 32});
}

}  // namespace
}  // namespace odq::nn
