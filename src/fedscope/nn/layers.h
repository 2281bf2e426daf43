#ifndef FEDSCOPE_NN_LAYERS_H_
#define FEDSCOPE_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "fedscope/tensor/tensor.h"
#include "fedscope/util/rng.h"

namespace fedscope {

/// A named reference to a layer parameter (or buffer) and its gradient.
/// `trainable == false` marks buffers such as BatchNorm running statistics:
/// they are part of the state dict (and thus of exchanged messages) but are
/// not touched by optimizers.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;  // nullptr for buffers
  bool trainable = true;
};

/// Base class for neural-network layers (caffe-style explicit
/// forward/backward). A layer caches whatever it needs from the forward
/// pass to compute the backward pass; Backward must be called after the
/// matching Forward. Parameter gradients are *accumulated* into the grad
/// tensors; callers zero them between optimization steps.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `train` selects training behaviour
  /// (dropout masks, batch statistics).
  virtual Tensor Forward(const Tensor& x, bool train) = 0;

  /// Propagates `grad_out` (dL/d output) to dL/d input; accumulates
  /// parameter gradients.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  /// Backward without dL/d input: accumulates the same parameter gradients,
  /// bit for bit, and releases what Backward releases. Model::Backward calls
  /// it on its first layer with parameters, whose input gradient nothing
  /// reads. The default runs Backward and drops the result; layers whose
  /// input gradient costs a product of its own override it.
  virtual void BackwardParams(const Tensor& grad_out) {
    (void)Backward(grad_out);
  }

  /// Appends this layer's parameters/buffers, names prefixed.
  virtual void CollectParams(const std::string& prefix,
                             std::vector<ParamRef>* out) {
    (void)prefix;
    (void)out;
  }

  /// Deep copy (used to clone models across simulated clients).
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Human-readable layer type for logging / completeness output.
  virtual std::string TypeName() const = 0;
};

/// Fully connected layer: y = x W + b, x: [B, in], W: [in, out], b: [out].
class Linear : public Layer {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng);

  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void BackwardParams(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<ParamRef>* out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "Linear"; }

  const Tensor& weight() const { return weight_; }
  const Tensor& weight_grad() const { return weight_grad_; }
  const Tensor& bias_grad() const { return bias_grad_; }

 private:
  Linear() = default;
  void AccumulateParamGrads(const Tensor& grad_out);
  int64_t in_features_ = 0;
  int64_t out_features_ = 0;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

/// 2-D convolution over NCHW input, stride 1, symmetric zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
         int64_t padding, Rng* rng);

  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void BackwardParams(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<ParamRef>* out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "Conv2d"; }

  /// Floats of im2col columns held from a training Forward until the
  /// matching Backward or BackwardParams frees them; 0 otherwise.
  size_t kept_column_floats() const { return cached_cols_.size(); }

 private:
  Conv2d() = default;
  // Accumulates the parameter gradients and, when grad_in is not null, the
  // input gradient into it; frees cached_cols_ either way.
  void BackwardInto(const Tensor& grad_out, Tensor* grad_in);
  int64_t in_channels_ = 0, out_channels_ = 0, kernel_ = 0, padding_ = 0;
  Tensor weight_;  // [out_c, in_c, k, k]
  Tensor bias_;    // [out_c]
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
  // Im2Col columns of every image of the last training forward, held only
  // until the matching Backward (empty otherwise, so idle models stay small).
  std::vector<float> cached_cols_;
};

/// Elementwise rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// Elementwise hyperbolic tangent.
class Tanh : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

/// Inverted dropout: active in training mode only.
class Dropout : public Layer {
 public:
  Dropout(double rate, uint64_t seed);

  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "Dropout"; }

 private:
  double rate_;
  Rng rng_;
  Tensor mask_;
  bool last_train_ = false;
};

/// 2x2 max pooling with stride 2 over NCHW input (kernels::MaxPool2x2).
class MaxPool2d : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "MaxPool2d"; }

 private:
  std::vector<int64_t> argmax_;
  std::vector<int64_t> in_shape_;
};

/// Flattens [B, ...] to [B, prod(...)].
class Flatten : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "Flatten"; }

 private:
  std::vector<int64_t> in_shape_;
};

/// Batch normalization. Handles both [B, F] (per-feature) and [B, C, H, W]
/// (per-channel) inputs. gamma/beta are trainable; running mean/var are
/// buffers (this split is what FedBN's "don't share BN" relies on).
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(int64_t num_features, double momentum = 0.1,
                     double eps = 1e-5);

  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<ParamRef>* out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string TypeName() const override { return "BatchNorm"; }

 private:
  int64_t num_features_;
  double momentum_;
  double eps_;
  Tensor gamma_, beta_;
  Tensor gamma_grad_, beta_grad_;
  Tensor running_mean_, running_var_;  // buffers
  // Cached forward state for backward.
  Tensor cached_xhat_;
  std::vector<double> cached_invstd_;
  std::vector<int64_t> in_shape_;
  bool last_train_ = false;
};

}  // namespace fedscope

#endif  // FEDSCOPE_NN_LAYERS_H_
