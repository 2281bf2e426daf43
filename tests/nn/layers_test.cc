#include "fedscope/nn/layers.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fedscope/nn/grad_check.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model.h"
#include "fedscope/tensor/kernels.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

// ---------------------------------------------------------------------------
// Forward-pass semantics
// ---------------------------------------------------------------------------

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear fc(2, 2, &rng);
  // Set known weights via the model parameter interface.
  std::vector<ParamRef> params;
  fc.CollectParams("fc", &params);
  ASSERT_EQ(params.size(), 2u);
  *params[0].value = Tensor({2, 2}, {1, 2, 3, 4});  // W
  *params[1].value = Tensor({2}, {0.5f, -0.5f});    // b
  Tensor x({1, 2}, {1, 1});
  Tensor y = fc.Forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 - 0.5f);
}

TEST(ReLUTest, ForwardClampsAndBackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 2.0f});
  Tensor y = relu.Forward(x, true);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor g = relu.Backward(Tensor::FromVector({1, 1, 1}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 0.0f);  // gradient at exactly 0 is 0 (subgradient)
  EXPECT_EQ(g.at(2), 1.0f);
}

TEST(TanhTest, ForwardRange) {
  Tanh tanh_layer;
  Tensor x = Tensor::FromVector({-10.0f, 0.0f, 10.0f});
  Tensor y = tanh_layer.Forward(x, true);
  EXPECT_NEAR(y.at(0), -1.0f, 1e-4);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_NEAR(y.at(2), 1.0f, 1e-4);
}

TEST(MaxPoolTest, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.Forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y.at(0), 5.0f);
  Tensor g = pool.Backward(Tensor({1, 1, 1, 1}, {7.0f}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 7.0f);  // gradient flows only to the argmax
  EXPECT_EQ(g.at(2), 0.0f);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flatten;
  Tensor x({2, 3, 2, 2});
  Tensor y = flatten.Forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 12);
  Tensor g = flatten.Backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5, 42);
  Tensor x = Tensor::Full({100}, 1.0f);
  Tensor y = drop.Forward(x, /*train=*/false);
  EXPECT_TRUE(x == y);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  Dropout drop(0.5, 42);
  Tensor x = Tensor::Full({2000}, 1.0f);
  Tensor y = drop.Forward(x, /*train=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // inverted dropout scale 1/(1-p)
    }
    sum += y.at(i);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop(0.3, 7);
  Tensor x = Tensor::Full({50}, 1.0f);
  Tensor y = drop.Forward(x, true);
  Tensor g = drop.Backward(Tensor::Full({50}, 1.0f));
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(g.at(i) == 0.0f, y.at(i) == 0.0f);
  }
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm bn(2);
  Tensor x({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor y = bn.Forward(x, /*train=*/true);
  // Per-feature mean ~0, var ~1.
  for (int f = 0; f < 2; ++f) {
    double mean = 0.0, var = 0.0;
    for (int i = 0; i < 4; ++i) mean += y.at(i, f);
    mean /= 4;
    for (int i = 0; i < 4; ++i) {
      var += (y.at(i, f) - mean) * (y.at(i, f) - mean);
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsUpdateAndEvalMode) {
  BatchNorm bn(1);
  Tensor x({4, 1}, {10, 10, 10, 10});
  // EMA with momentum 0.1: after ~200 identical batches, running mean has
  // converged to 10 and running var to ~0.
  for (int i = 0; i < 200; ++i) bn.Forward(x, /*train=*/true);
  Tensor y = bn.Forward(x, /*train=*/false);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(y.at(i, 0), 0.0f, 0.05f);
}

TEST(BatchNormTest, ParamsSplitTrainableAndBuffers) {
  BatchNorm bn(3);
  std::vector<ParamRef> params;
  bn.CollectParams("layer", &params);
  ASSERT_EQ(params.size(), 4u);
  int trainable = 0, buffers = 0;
  for (const auto& p : params) {
    if (p.trainable) {
      ++trainable;
    } else {
      ++buffers;
      EXPECT_EQ(p.grad, nullptr);
    }
    EXPECT_NE(p.name.find(".bn."), std::string::npos);
  }
  EXPECT_EQ(trainable, 2);  // gamma, beta
  EXPECT_EQ(buffers, 2);    // running mean/var
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(2);
  Conv2d conv(1, 1, 3, 1, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  // Kernel = delta at center, bias 0 -> output == input.
  ZeroInPlace(params[0].value);
  params[0].value->at4(0, 0, 1, 1) = 1.0f;
  ZeroInPlace(params[1].value);
  Rng xr(3);
  Tensor x = Tensor::Randn({1, 1, 4, 4}, &xr);
  Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y.at(i), x.at(i), 1e-5);
}

TEST(Conv2dTest, OutputShapeNoPadding) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 0, &rng);
  Tensor x({2, 2, 6, 6});
  Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

// ---------------------------------------------------------------------------
// Conv2d vs the per-image lowering it implements, bit for bit.
// ---------------------------------------------------------------------------

// ConvNet2's two convolutions at coursebench silo_convnet's shape (one 8x8
// channel in, batch 16): conv1 is 1->8 on 8x8, conv2 8->16 on 4x4.
struct ConvShape {
  int64_t in_c, out_c, hw;
};
constexpr ConvShape kConvNet2Convs[] = {{1, 8, 8}, {8, 16, 4}};
constexpr int64_t kConvBatch = 16, kConvKernel = 3, kConvPad = 1;

// The per-image algorithm written out from the scalar GEMM references:
// lower each image with Im2Col, multiply, add the bias.
Tensor ReferenceConvForward(const Tensor& x, const Tensor& weight,
                            const Tensor& bias, int64_t out_c) {
  const int64_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t out_h = kernels::ConvOutDim(h, kConvKernel, kConvPad);
  const int64_t out_w = kernels::ConvOutDim(w, kConvKernel, kConvPad);
  const int64_t patch = in_c * kConvKernel * kConvKernel;
  const int64_t spatial = out_h * out_w;
  Tensor y({batch, out_c, out_h, out_w});
  std::vector<float> cols(patch * spatial);
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Im2Col(x.data() + n * in_c * h * w, in_c, h, w, kConvKernel,
                    kConvPad, cols.data());
    float* yn = y.data() + n * out_c * spatial;
    kernels::GemmReference(out_c, spatial, patch, weight.data(), cols.data(),
                           yn);
    kernels::AddRowBias(yn, bias.data(), out_c, spatial);
  }
  return y;
}

// Per image: db += rowsum(G), dW += G @ cols^T with the columns lowered
// again, d(cols) = W^T @ G scattered back by Col2Im.
Tensor ReferenceConvBackward(const Tensor& x, const Tensor& weight,
                             const Tensor& grad_out, Tensor* weight_grad,
                             Tensor* bias_grad) {
  const int64_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t out_c = grad_out.dim(1);
  const int64_t spatial = grad_out.dim(2) * grad_out.dim(3);
  const int64_t patch = in_c * kConvKernel * kConvKernel;
  Tensor grad_in(x.shape());
  std::vector<float> cols(patch * spatial), grad_cols(patch * spatial);
  for (int64_t n = 0; n < batch; ++n) {
    const float* gn = grad_out.data() + n * out_c * spatial;
    kernels::RowSumsAccum(gn, out_c, spatial, bias_grad->data());
    kernels::Im2Col(x.data() + n * in_c * h * w, in_c, h, w, kConvKernel,
                    kConvPad, cols.data());
    kernels::GemmTransBReference(out_c, patch, spatial, gn, cols.data(),
                                 weight_grad->data());
    std::fill(grad_cols.begin(), grad_cols.end(), 0.0f);
    kernels::GemmTransAReference(patch, spatial, out_c, weight.data(), gn,
                                 grad_cols.data());
    kernels::Col2Im(grad_cols.data(), in_c, h, w, kConvKernel, kConvPad,
                    grad_in.data() + n * in_c * h * w);
  }
  return grad_in;
}

// Runs `steps` forward/backward pairs on fresh inputs (gradients accumulate
// across them) and checks every output and gradient bit for bit. With
// `eval_forward` set, each step first runs a training forward on a decoy
// input and then the eval forward whose Backward is checked.
void CheckConvAgainstReference(const ConvShape& shape, bool eval_forward) {
  Rng rng(21 + shape.in_c);
  Conv2d conv(shape.in_c, shape.out_c, kConvKernel, kConvPad, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor& weight = *params[0].value;
  const Tensor& bias = *params[1].value;
  Tensor want_wgrad = Tensor::Zeros(weight.shape());
  Tensor want_bgrad = Tensor::Zeros(bias.shape());
  for (int step = 0; step < 2; ++step) {
    const std::vector<int64_t> x_shape = {kConvBatch, shape.in_c, shape.hw,
                                          shape.hw};
    if (eval_forward) conv.Forward(Tensor::Randn(x_shape, &rng), true);
    const Tensor x = Tensor::Randn(x_shape, &rng);
    const Tensor y = conv.Forward(x, /*train=*/!eval_forward);
    ASSERT_EQ(y, ReferenceConvForward(x, weight, bias, shape.out_c))
        << "in_c=" << shape.in_c << " step " << step;
    const Tensor grad_out = Tensor::Randn(y.shape(), &rng);
    const Tensor grad_in = conv.Backward(grad_out);
    ASSERT_EQ(grad_in, ReferenceConvBackward(x, weight, grad_out,
                                             &want_wgrad, &want_bgrad))
        << "in_c=" << shape.in_c << " step " << step;
    ASSERT_EQ(*params[0].grad, want_wgrad) << "step " << step;
    ASSERT_EQ(*params[1].grad, want_bgrad) << "step " << step;
  }
}

TEST(Conv2dTest, TrainStepMatchesPerImageLoweringBitForBit) {
  for (const ConvShape& shape : kConvNet2Convs) {
    CheckConvAgainstReference(shape, /*eval_forward=*/false);
  }
}

TEST(Conv2dTest, BackwardAfterEvalForwardMatchesPerImageLowering) {
  for (const ConvShape& shape : kConvNet2Convs) {
    CheckConvAgainstReference(shape, /*eval_forward=*/true);
  }
}

// ---------------------------------------------------------------------------
// MaxPool2d vs the scalar kernel reference, bit for bit.
// ---------------------------------------------------------------------------

// ReLU output with NaN, both infinities and -0 sprinkled in: most windows
// tie at zero, as they do behind ConvNet2's ReLUs.
Tensor PoolLayerInput(const std::vector<int64_t>& shape, Rng* rng) {
  Tensor x = Tensor::Randn(shape, rng);
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f};
  for (int64_t i = 0; i < x.numel(); ++i) {
    const int64_t pick = rng->UniformInt(0, 15);
    x.at(i) = pick < 4 ? kSpecial[pick] : std::max(x.at(i), 0.0f);
  }
  return x;
}

// Forward (training or eval) must copy the reference's values bit for bit
// (Tensor equality compares bits, so NaN matches NaN),
// and Backward must send each output gradient to the reference's argmax.
// A decoy forward of another shape runs first, so an argmax entry the
// layer failed to overwrite would misroute.
void CheckPoolAgainstReference(const std::vector<int64_t>& shape,
                               bool train) {
  Rng rng(41 + shape[3]);
  MaxPool2d pool;
  pool.Forward(Tensor::Randn({shape[0] + 1, shape[1], shape[2] + 2,
                              shape[3] + 2},
                             &rng),
               true);
  const Tensor x = PoolLayerInput(shape, &rng);
  const Tensor y = pool.Forward(x, train);
  const int64_t planes = shape[0] * shape[1];
  Tensor want({shape[0], shape[1], shape[2] / 2, shape[3] / 2});
  std::vector<int64_t> argmax(want.numel());
  kernels::MaxPool2x2Reference(x.data(), planes, shape[2], shape[3],
                               want.data(), argmax.data());
  EXPECT_TRUE(y == want) << x.ShapeString() << " train=" << train;

  const Tensor grad_out = Tensor::Randn(y.shape(), &rng);
  Tensor want_grad(x.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    want_grad.at(argmax[i]) += grad_out.at(i);
  }
  EXPECT_TRUE(pool.Backward(grad_out) == want_grad)
      << x.ShapeString() << " train=" << train;
}

// silo_convnet's two pools, batch x channel counts that leave the vector
// path a scalar tail, odd extents, and 2- and 3-wide planes.
const std::vector<int64_t> kPoolLayerShapes[] = {
    {16, 8, 8, 8}, {16, 16, 4, 4}, {3, 5, 4, 4}, {1, 3, 6, 8},
    {2, 3, 5, 7},  {2, 1, 7, 8},   {1, 1, 2, 2}, {3, 1, 3, 2}};

TEST(MaxPool2dLayerTest, TrainForwardAndBackwardMatchReferenceBitForBit) {
  for (const auto& shape : kPoolLayerShapes) {
    CheckPoolAgainstReference(shape, /*train=*/true);
  }
}

TEST(MaxPool2dLayerTest, BackwardAfterEvalForwardMatchesReference) {
  for (const auto& shape : kPoolLayerShapes) {
    CheckPoolAgainstReference(shape, /*train=*/false);
  }
}

// ---------------------------------------------------------------------------
// Gradient checks: every layer's backward pass against finite differences.
// ---------------------------------------------------------------------------

struct GradCheckCase {
  std::string name;
  std::function<Model(Rng*)> build;
  std::vector<int64_t> x_shape;
  int64_t classes;
  /// float32 + finite differences leave ~1e-2 relative error; BN through
  /// conv amplifies it slightly (1/sqrt(var) factors), so cases may widen.
  double tolerance = 2e-2;
};

/// Without this, gtest renders the case as raw object bytes, which start
/// with the name string's heap address: the listed test names would then
/// change with every build and run.
void PrintTo(const GradCheckCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class LayerGradCheck : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(LayerGradCheck, AnalyticMatchesNumeric) {
  const auto& test_case = GetParam();
  Rng rng(11);
  Model model = test_case.build(&rng);
  Rng xr(12);
  Tensor x = Tensor::Randn(test_case.x_shape, &xr);
  std::vector<int64_t> labels(test_case.x_shape[0]);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int64_t>(i) % test_case.classes;
  }
  SoftmaxCrossEntropy loss;
  auto result = CheckModelGradients(&model, &loss, x, labels, 1e-2, 12);
  EXPECT_GT(result.checked, 0);
  EXPECT_LT(result.max_rel_err, test_case.tolerance)
      << test_case.name << " abs=" << result.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradCheck,
    ::testing::Values(
        GradCheckCase{"linear",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc", std::make_unique<Linear>(6, 4, rng));
                        return m;
                      },
                      {3, 6},
                      4},
        GradCheckCase{"mlp_relu",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(5, 8, rng));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("fc2", std::make_unique<Linear>(8, 3, rng));
                        return m;
                      },
                      {4, 5},
                      3},
        GradCheckCase{"mlp_tanh",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(5, 6, rng));
                        m.Add("act", std::make_unique<Tanh>());
                        m.Add("fc2", std::make_unique<Linear>(6, 3, rng));
                        return m;
                      },
                      {4, 5},
                      3},
        GradCheckCase{"batchnorm",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(4, 6, rng));
                        m.Add("norm", std::make_unique<BatchNorm>(6));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("fc2", std::make_unique<Linear>(6, 2, rng));
                        return m;
                      },
                      {6, 4},
                      2},
        GradCheckCase{"conv_pool",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(1, 2, 3, 1, rng));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("pool", std::make_unique<MaxPool2d>());
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(8, 3, rng));
                        return m;
                      },
                      {2, 1, 4, 4},
                      3},
        GradCheckCase{"conv_batchnorm",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(1, 3, 3, 1, rng));
                        m.Add("norm", std::make_unique<BatchNorm>(3));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(3 * 4 * 4, 2,
                                                             rng));
                        return m;
                      },
                      {3, 1, 4, 4},
                      2,
                      /*tolerance=*/5e-2},
        GradCheckCase{"conv_nopad",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(2, 2, 3, 0, rng));
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(2 * 2 * 2, 2,
                                                             rng));
                        return m;
                      },
                      {2, 2, 4, 4},
                      2}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

TEST(LayerCloneTest, ClonesAreIndependent) {
  Rng rng(13);
  Linear fc(3, 3, &rng);
  auto copy = fc.Clone();
  std::vector<ParamRef> orig_params, copy_params;
  fc.CollectParams("fc", &orig_params);
  copy->CollectParams("fc", &copy_params);
  EXPECT_TRUE(*orig_params[0].value == *copy_params[0].value);
  copy_params[0].value->at(0) += 1.0f;
  EXPECT_FALSE(*orig_params[0].value == *copy_params[0].value);
}

}  // namespace
}  // namespace fedscope
