#include "fedscope/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fedscope/tensor/kernels.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

// He-uniform bound for fan_in inputs.
float HeBound(int64_t fan_in) {
  return std::sqrt(6.0f / static_cast<float>(fan_in));
}

}  // namespace

// --------------------------------------------------------------------------
// Linear
// --------------------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  const float bound = HeBound(in_features);
  weight_ = Tensor::Rand({in_features, out_features}, rng, -bound, bound);
  bias_ = Tensor::Zeros({out_features});
  weight_grad_ = Tensor::Zeros({in_features, out_features});
  bias_grad_ = Tensor::Zeros({out_features});
}

Tensor Linear::Forward(const Tensor& x, bool /*train*/) {
  FS_CHECK_EQ(x.ndim(), 2);
  FS_CHECK_EQ(x.dim(1), in_features_);
  cached_input_ = x;
  Tensor y = MatMul(x, weight_);
  kernels::AddColBias(y.data(), bias_.data(), y.dim(0), out_features_);
  return y;
}

void Linear::AccumulateParamGrads(const Tensor& grad_out) {
  FS_CHECK_EQ(grad_out.ndim(), 2);
  FS_CHECK_EQ(grad_out.dim(1), out_features_);
  const int64_t batch = grad_out.dim(0);
  // dW = x^T g (accumulated straight into the grad tensor), db = colsum(g).
  kernels::GemmTransA(in_features_, out_features_, batch,
                      cached_input_.data(), grad_out.data(),
                      weight_grad_.data());
  kernels::ColSumsAccum(grad_out.data(), batch, out_features_,
                        bias_grad_.data());
}

Tensor Linear::Backward(const Tensor& grad_out) {
  AccumulateParamGrads(grad_out);
  return MatMulTransB(grad_out, weight_);  // dx = g W^T
}

void Linear::BackwardParams(const Tensor& grad_out) {
  AccumulateParamGrads(grad_out);
}

void Linear::CollectParams(const std::string& prefix,
                           std::vector<ParamRef>* out) {
  out->push_back({prefix + ".weight", &weight_, &weight_grad_, true});
  out->push_back({prefix + ".bias", &bias_, &bias_grad_, true});
}

std::unique_ptr<Layer> Linear::Clone() const {
  auto copy = std::unique_ptr<Linear>(new Linear());
  *copy = *this;
  return copy;
}

// --------------------------------------------------------------------------
// Conv2d
// --------------------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               int64_t padding, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel_size),
      padding_(padding) {
  const float bound = HeBound(in_channels * kernel_size * kernel_size);
  weight_ = Tensor::Rand({out_channels, in_channels, kernel_size, kernel_size},
                         rng, -bound, bound);
  bias_ = Tensor::Zeros({out_channels});
  weight_grad_ = Tensor::Zeros(weight_.shape());
  bias_grad_ = Tensor::Zeros({out_channels});
}

Tensor Conv2d::Forward(const Tensor& x, bool train) {
  FS_CHECK_EQ(x.ndim(), 4);
  FS_CHECK_EQ(x.dim(1), in_channels_);
  cached_input_ = x;
  const int64_t batch = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const int64_t out_h = in_h + 2 * padding_ - kernel_ + 1;
  const int64_t out_w = in_w + 2 * padding_ - kernel_ + 1;
  FS_CHECK_GT(out_h, 0);
  FS_CHECK_GT(out_w, 0);
  // im2col lowering: per image, y[oc, oh*ow] = W[oc, ic*k*k] @ cols + bias.
  // A training pass keeps every image's columns for Backward; an eval pass
  // lowers into one image's worth and drops what a training pass left.
  Tensor y({batch, out_channels_, out_h, out_w});
  const int64_t patch = in_channels_ * kernel_ * kernel_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_cols = patch * spatial;
  std::vector<float> eval_cols;
  if (train) {
    cached_cols_.resize(batch * image_cols);
  } else {
    std::vector<float>().swap(cached_cols_);
    eval_cols.resize(image_cols);
  }
  for (int64_t n = 0; n < batch; ++n) {
    float* cols =
        train ? cached_cols_.data() + n * image_cols : eval_cols.data();
    kernels::Im2Col(x.data() + n * in_channels_ * in_h * in_w, in_channels_,
                    in_h, in_w, kernel_, padding_, cols);
    float* yn = y.data() + n * out_channels_ * spatial;
    kernels::Gemm(out_channels_, spatial, patch, weight_.data(), cols, yn);
    kernels::AddRowBias(yn, bias_.data(), out_channels_, spatial);
  }
  return y;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  Tensor grad_in(cached_input_.shape());
  BackwardInto(grad_out, &grad_in);
  return grad_in;
}

void Conv2d::BackwardParams(const Tensor& grad_out) {
  BackwardInto(grad_out, nullptr);
}

void Conv2d::BackwardInto(const Tensor& grad_out, Tensor* grad_in) {
  const Tensor& x = cached_input_;
  const int64_t batch = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const int64_t out_h = grad_out.dim(2), out_w = grad_out.dim(3);
  const int64_t patch = in_channels_ * kernel_ * kernel_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_cols = patch * spatial;
  // After an eval forward no columns are kept: lower each image again.
  const bool reuse = !cached_cols_.empty();
  std::vector<float> recomputed(reuse ? 0 : image_cols);
  // Per image: db += rowsum(G), dW += G @ cols^T, and with grad_in,
  // d(cols) = W^T @ G, which col2im scatters back into grad_in.
  std::vector<float> grad_cols(grad_in != nullptr ? image_cols : 0);
  for (int64_t n = 0; n < batch; ++n) {
    const float* gn = grad_out.data() + n * out_channels_ * spatial;
    const float* xn = x.data() + n * in_channels_ * in_h * in_w;
    kernels::RowSumsAccum(gn, out_channels_, spatial, bias_grad_.data());
    if (!reuse) {
      kernels::Im2Col(xn, in_channels_, in_h, in_w, kernel_, padding_,
                      recomputed.data());
    }
    const float* cols =
        reuse ? cached_cols_.data() + n * image_cols : recomputed.data();
    kernels::GemmTransB(out_channels_, patch, spatial, gn, cols,
                        weight_grad_.data());
    if (grad_in == nullptr) continue;
    std::fill(grad_cols.begin(), grad_cols.end(), 0.0f);
    kernels::GemmTransA(patch, spatial, out_channels_, weight_.data(), gn,
                        grad_cols.data());
    kernels::Col2Im(grad_cols.data(), in_channels_, in_h, in_w, kernel_,
                    padding_,
                    grad_in->data() + n * in_channels_ * in_h * in_w);
  }
  std::vector<float>().swap(cached_cols_);
}

void Conv2d::CollectParams(const std::string& prefix,
                           std::vector<ParamRef>* out) {
  out->push_back({prefix + ".weight", &weight_, &weight_grad_, true});
  out->push_back({prefix + ".bias", &bias_, &bias_grad_, true});
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  *copy = *this;
  return copy;
}

// --------------------------------------------------------------------------
// ReLU / Tanh
// --------------------------------------------------------------------------

Tensor ReLU::Forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = x;
  kernels::ReluForward(x.data(), y.data(), y.numel());
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  kernels::ReluBackward(cached_input_.data(), grad_in.data(),
                        grad_in.numel());
  return grad_in;
}

std::unique_ptr<Layer> ReLU::Clone() const {
  return std::make_unique<ReLU>(*this);
}

Tensor Tanh::Forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  kernels::TanhForward(x.data(), y.data(), y.numel());
  cached_output_ = y;
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  kernels::TanhBackward(cached_output_.data(), grad_in.data(),
                        grad_in.numel());
  return grad_in;
}

std::unique_ptr<Layer> Tanh::Clone() const {
  return std::make_unique<Tanh>(*this);
}

// --------------------------------------------------------------------------
// Dropout
// --------------------------------------------------------------------------

Dropout::Dropout(double rate, uint64_t seed) : rate_(rate), rng_(seed) {
  FS_CHECK_GE(rate, 0.0);
  FS_CHECK_LT(rate, 1.0);
}

Tensor Dropout::Forward(const Tensor& x, bool train) {
  last_train_ = train;
  if (!train || rate_ == 0.0) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  float* pm = mask_.data();
  float* py = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (rng_.Bernoulli(rate_)) {
      pm[i] = 0.0f;
      py[i] = 0.0f;
    } else {
      pm[i] = keep_scale;
      py[i] *= keep_scale;
    }
  }
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_out) {
  if (!last_train_ || rate_ == 0.0) return grad_out;
  return Mul(grad_out, mask_);
}

std::unique_ptr<Layer> Dropout::Clone() const {
  return std::make_unique<Dropout>(*this);
}

// --------------------------------------------------------------------------
// MaxPool2d
// --------------------------------------------------------------------------

Tensor MaxPool2d::Forward(const Tensor& x, bool /*train*/) {
  FS_CHECK_EQ(x.ndim(), 4);
  in_shape_ = x.shape();
  const int64_t batch = x.dim(0), channels = x.dim(1);
  const int64_t in_h = x.dim(2), in_w = x.dim(3);
  const int64_t out_h = in_h / 2, out_w = in_w / 2;
  FS_CHECK_GT(out_h, 0);
  FS_CHECK_GT(out_w, 0);
  Tensor y({batch, channels, out_h, out_w});
  // Resized, not zeroed: MaxPool2x2 writes every entry. An eval forward
  // fills it too, so Backward routes after either.
  argmax_.resize(y.numel());
  kernels::MaxPool2x2(x.data(), batch * channels, in_h, in_w, y.data(),
                      argmax_.data());
  return y;
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in.at(argmax_[i]) += grad_out.at(i);
  }
  return grad_in;
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

// --------------------------------------------------------------------------
// Flatten
// --------------------------------------------------------------------------

Tensor Flatten::Forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  return x.Reshape({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  return grad_out.Reshape(in_shape_);
}

std::unique_ptr<Layer> Flatten::Clone() const {
  return std::make_unique<Flatten>(*this);
}

// --------------------------------------------------------------------------
// BatchNorm
// --------------------------------------------------------------------------

BatchNorm::BatchNorm(int64_t num_features, double momentum, double eps)
    : num_features_(num_features), momentum_(momentum), eps_(eps) {
  gamma_ = Tensor::Full({num_features}, 1.0f);
  beta_ = Tensor::Zeros({num_features});
  gamma_grad_ = Tensor::Zeros({num_features});
  beta_grad_ = Tensor::Zeros({num_features});
  running_mean_ = Tensor::Zeros({num_features});
  running_var_ = Tensor::Full({num_features}, 1.0f);
}

// Iterates a [B, F] or [B, C, H, W] tensor grouped by feature/channel f.
// Calls fn(f, flat_index) for every element belonging to feature f.
template <typename Fn>
static void ForEachByFeature(const std::vector<int64_t>& shape,
                             int64_t num_features, Fn fn) {
  if (shape.size() == 2) {
    const int64_t batch = shape[0];
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t f = 0; f < num_features; ++f) {
        fn(f, n * num_features + f);
      }
    }
  } else {
    const int64_t batch = shape[0], spatial = shape[2] * shape[3];
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t f = 0; f < num_features; ++f) {
        const int64_t base = (n * num_features + f) * spatial;
        for (int64_t s = 0; s < spatial; ++s) fn(f, base + s);
      }
    }
  }
}

Tensor BatchNorm::Forward(const Tensor& x, bool train) {
  FS_CHECK(x.ndim() == 2 || x.ndim() == 4) << x.ShapeString();
  FS_CHECK_EQ(x.dim(1), num_features_);
  in_shape_ = x.shape();
  last_train_ = train;
  const int64_t per_feature = x.numel() / num_features_;

  std::vector<double> mean(num_features_, 0.0), var(num_features_, 0.0);
  if (train) {
    ForEachByFeature(x.shape(), num_features_,
                     [&](int64_t f, int64_t i) { mean[f] += x.at(i); });
    for (auto& m : mean) m /= static_cast<double>(per_feature);
    ForEachByFeature(x.shape(), num_features_, [&](int64_t f, int64_t i) {
      const double d = x.at(i) - mean[f];
      var[f] += d * d;
    });
    for (auto& v : var) v /= static_cast<double>(per_feature);
    for (int64_t f = 0; f < num_features_; ++f) {
      running_mean_.at(f) = static_cast<float>(
          (1.0 - momentum_) * running_mean_.at(f) + momentum_ * mean[f]);
      running_var_.at(f) = static_cast<float>(
          (1.0 - momentum_) * running_var_.at(f) + momentum_ * var[f]);
    }
  } else {
    for (int64_t f = 0; f < num_features_; ++f) {
      mean[f] = running_mean_.at(f);
      var[f] = running_var_.at(f);
    }
  }

  cached_invstd_.assign(num_features_, 0.0);
  for (int64_t f = 0; f < num_features_; ++f) {
    cached_invstd_[f] = 1.0 / std::sqrt(var[f] + eps_);
  }
  cached_xhat_ = Tensor(x.shape());
  Tensor y(x.shape());
  ForEachByFeature(x.shape(), num_features_, [&](int64_t f, int64_t i) {
    const double xhat = (x.at(i) - mean[f]) * cached_invstd_[f];
    cached_xhat_.at(i) = static_cast<float>(xhat);
    y.at(i) = static_cast<float>(gamma_.at(f) * xhat + beta_.at(f));
  });
  return y;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  const int64_t per_feature = grad_out.numel() / num_features_;
  std::vector<double> sum_dy(num_features_, 0.0);
  std::vector<double> sum_dy_xhat(num_features_, 0.0);
  ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
    sum_dy[f] += grad_out.at(i);
    sum_dy_xhat[f] += grad_out.at(i) * cached_xhat_.at(i);
  });
  for (int64_t f = 0; f < num_features_; ++f) {
    gamma_grad_.at(f) += static_cast<float>(sum_dy_xhat[f]);
    beta_grad_.at(f) += static_cast<float>(sum_dy[f]);
  }
  Tensor grad_in(in_shape_);
  if (last_train_) {
    // dx = gamma * invstd * (dy - mean(dy) - xhat * mean(dy*xhat)).
    const double inv_n = 1.0 / static_cast<double>(per_feature);
    ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
      const double dy = grad_out.at(i);
      const double dx =
          gamma_.at(f) * cached_invstd_[f] *
          (dy - sum_dy[f] * inv_n - cached_xhat_.at(i) * sum_dy_xhat[f] * inv_n);
      grad_in.at(i) = static_cast<float>(dx);
    });
  } else {
    // Eval mode: running stats are constants.
    ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
      grad_in.at(i) = static_cast<float>(grad_out.at(i) * gamma_.at(f) *
                                         cached_invstd_[f]);
    });
  }
  return grad_in;
}

void BatchNorm::CollectParams(const std::string& prefix,
                              std::vector<ParamRef>* out) {
  out->push_back({prefix + ".bn.gamma", &gamma_, &gamma_grad_, true});
  out->push_back({prefix + ".bn.beta", &beta_, &beta_grad_, true});
  out->push_back(
      {prefix + ".bn.running_mean", &running_mean_, nullptr, false});
  out->push_back({prefix + ".bn.running_var", &running_var_, nullptr, false});
}

std::unique_ptr<Layer> BatchNorm::Clone() const {
  return std::make_unique<BatchNorm>(*this);
}

}  // namespace fedscope
