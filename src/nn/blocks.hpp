// Composite blocks: residual basic block (ResNet) and dense block /
// transition (DenseNet). Each block owns its sub-layers and routes gradients
// through both data paths explicitly.
#pragma once

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"

namespace odq::nn {

// conv3x3-bn-relu-conv3x3-bn + shortcut, then relu (He et al. basic block).
// When stride > 1 or channel counts differ, the shortcut is conv1x1-bn.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride, std::string label = "resblock");

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override { return label_; }
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<tensor::Tensor*>& out) override;
  void visit_convs(const std::function<void(Conv2d&)>& fn) override;

 private:
  std::string label_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  ReLU relu2_;
  bool has_projection_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
};

// One DenseNet layer: bn-relu-conv3x3 producing `growth` channels; the block
// concatenates its output onto the running feature stack.
class DenseBlock : public Layer {
 public:
  DenseBlock(std::int64_t in_channels, std::int64_t growth,
             std::int64_t num_layers, std::string label = "denseblock");

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override { return label_; }
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<tensor::Tensor*>& out) override;
  void visit_convs(const std::function<void(Conv2d&)>& fn) override;

  std::int64_t out_channels() const {
    return in_channels_ + growth_ * num_layers_;
  }

 private:
  std::string label_;
  std::int64_t in_channels_, growth_, num_layers_;
  struct Inner {
    std::unique_ptr<BatchNorm2d> bn;
    std::unique_ptr<ReLU> relu;
    std::unique_ptr<Conv2d> conv;
  };
  std::vector<Inner> layers_;
  // Concatenated inputs seen by each inner layer during the last train-mode
  // forward.
  std::vector<tensor::Tensor> cached_concat_;
};

// DenseNet transition: bn-relu-conv1x1 (channel reduction) - avgpool2.
class TransitionLayer : public Layer {
 public:
  TransitionLayer(std::int64_t in_channels, std::int64_t out_channels,
                  std::string label = "transition");

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override { return label_; }
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<tensor::Tensor*>& out) override;
  void visit_convs(const std::function<void(Conv2d&)>& fn) override;

 private:
  std::string label_;
  BatchNorm2d bn_;
  ReLU relu_;
  Conv2d conv_;
  AvgPool2d pool_;
};

}  // namespace odq::nn
