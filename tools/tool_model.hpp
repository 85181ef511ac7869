// Model construction shared by the CLI tools that build a network by name
// (odq_serve, odq_profile, odq_fidelity).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/init.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "tensor/shape.hpp"

namespace odq::tools {

// Every tool model is a 10-class classifier.
inline constexpr int kNumClasses = 10;

// lenet | lenet5 | resnet20 | resnet56 | vgg16 | densenet; `width` is the
// base channel width (LeNet-5 ignores it).
inline nn::Model build_model(const std::string& name, std::int64_t width) {
  if (name == "lenet" || name == "lenet5") return nn::make_lenet5(kNumClasses);
  if (name == "resnet20") return nn::make_resnet(20, kNumClasses, width);
  if (name == "resnet56") return nn::make_resnet(56, kNumClasses, width);
  if (name == "vgg16") return nn::make_vgg16(kNumClasses, width);
  if (name == "densenet") {
    return nn::make_densenet(kNumClasses, width / 2 + 2, 3);
  }
  throw std::invalid_argument("unknown model " + name);
}

// [C,H,W] of one request: 28x28 digits for LeNet-5, 32x32 RGB otherwise.
inline tensor::Shape input_chw_for(const std::string& name) {
  return (name == "lenet" || name == "lenet5") ? tensor::Shape{1, 28, 28}
                                               : tensor::Shape{3, 32, 32};
}

// The one weight sequence of every tool: kaiming_init with seed 1, then the
// v3 checkpoint when `checkpoint` is non-empty. Models built this way in any
// tool or process hold identical weights, so comparing them (served vs
// oracle, baseline vs shadow lane) measures the scheme, not the weights.
inline nn::Model build_initialized_model(const std::string& name,
                                         std::int64_t width,
                                         const std::string& checkpoint) {
  nn::Model model = build_model(name, width);
  nn::kaiming_init(model, 1);
  if (!checkpoint.empty()) model.try_load(checkpoint).throw_if_error();
  return model;
}

}  // namespace odq::tools
