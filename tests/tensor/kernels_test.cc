#include "fedscope/tensor/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fedscope/nn/layers.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace {

std::vector<float> RandVec(int64_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

// Edge shapes around the register-block sizes (MR=8; 32-, 16- and 8-wide
// column tiles): unit dims, odd dims, exact multiples, just over a tile,
// k = 0, ConvNet2's lowering GEMMs (silo shape: 1->8 channels on 8x8, 8->16
// on 4x4), and widths on both sides of each narrow tile. The last row
// exercises GemmTransB's 8x8 transpose blocks: n and k below 8, not
// multiples of 8, and exactly 8 or 16, around the conv weight-gradient
// shapes (16, 72, 16) and (8, 9, 64) above.
struct Shape {
  int64_t m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 33, 7},   {3, 5, 1},    {8, 32, 16},  {9, 33, 17},
    {16, 64, 8},  {17, 70, 40}, {5, 2, 0},    {64, 48, 96}, {16, 16, 72},
    {8, 64, 9},   {8, 9, 64},   {9, 64, 8},   {72, 16, 16}, {16, 72, 16},
    {16, 8, 5},   {16, 15, 5},  {17, 16, 5},  {16, 17, 5},  {8, 24, 5},
    {9, 40, 5},   {16, 56, 5},  {8, 72, 5},   {24, 13, 0},  {4, 3, 7},
    {8, 7, 8},    {8, 8, 7},    {16, 8, 8},   {8, 13, 11},  {16, 71, 17},
    {16, 73, 15}, {8, 10, 63},  {3, 16, 16},  {16, 64, 10}};

TEST(KernelsTest, GemmMatchesReferenceExactly) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.m * s.k, &rng);
    std::vector<float> b = RandVec(s.k * s.n, &rng);
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::Gemm(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmReference(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmTransAMatchesReferenceExactly) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.k * s.m, &rng);  // [k, m]
    std::vector<float> b = RandVec(s.k * s.n, &rng);
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::GemmTransA(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmTransAReference(s.m, s.n, s.k, a.data(), b.data(),
                                 c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmTransBMatchesReferenceExactly) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.m * s.k, &rng);
    std::vector<float> b = RandVec(s.n * s.k, &rng);  // [n, k]
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::GemmTransB(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmTransBReference(s.m, s.n, s.k, a.data(), b.data(),
                                 c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmAccumulatesIntoC) {
  std::vector<float> a = {1.0f, 2.0f};           // [1, 2]
  std::vector<float> b = {3.0f, 4.0f};           // [2, 1]
  std::vector<float> c = {10.0f};                // pre-seeded
  kernels::Gemm(1, 1, 2, a.data(), b.data(), c.data());
  EXPECT_EQ(c[0], 10.0f + 3.0f + 8.0f);
}

TEST(KernelsTest, GemmKZeroLeavesCUntouched) {
  std::vector<float> a(1), b(1);
  std::vector<float> c = {7.0f, -1.0f};
  kernels::Gemm(1, 2, 0, a.data(), b.data(), c.data());
  EXPECT_EQ(c[0], 7.0f);
  EXPECT_EQ(c[1], -1.0f);
}

TEST(KernelsTest, GemmIsDeterministicAcrossRuns) {
  Rng rng(104);
  std::vector<float> a = RandVec(17 * 40, &rng);
  std::vector<float> b = RandVec(40 * 70, &rng);
  std::vector<float> c1(17 * 70, 0.0f), c2(17 * 70, 0.0f);
  kernels::Gemm(17, 70, 40, a.data(), b.data(), c1.data());
  kernels::Gemm(17, 70, 40, a.data(), b.data(), c2.data());
  EXPECT_EQ(c1, c2);
}

TEST(KernelsTest, Im2ColRoundTripsThroughCol2Im) {
  // With kernel=1, pad=0 the column matrix IS the image; col2im must
  // scatter it back exactly (accumulating onto zeros).
  Rng rng(105);
  const int64_t c = 2, h = 4, w = 5;
  std::vector<float> im = RandVec(c * h * w, &rng);
  std::vector<float> cols(c * h * w);
  kernels::Im2Col(im.data(), c, h, w, 1, 0, cols.data());
  EXPECT_EQ(cols, im);
  std::vector<float> back(c * h * w, 0.0f);
  kernels::Col2Im(cols.data(), c, h, w, 1, 0, back.data());
  EXPECT_EQ(back, im);
}

TEST(KernelsTest, Im2ColMatchesDirectGather) {
  Rng rng(106);
  const int64_t c = 3, h = 5, w = 4, k = 3, p = 1;
  const int64_t oh = kernels::ConvOutDim(h, k, p);
  const int64_t ow = kernels::ConvOutDim(w, k, p);
  std::vector<float> im = RandVec(c * h * w, &rng);
  std::vector<float> cols(c * k * k * oh * ow);
  kernels::Im2Col(im.data(), c, h, w, k, p, cols.data());
  for (int64_t ic = 0; ic < c; ++ic) {
    for (int64_t kh = 0; kh < k; ++kh) {
      for (int64_t kw = 0; kw < k; ++kw) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ih = y + kh - p, iw = x + kw - p;
            const float want =
                (ih < 0 || ih >= h || iw < 0 || iw >= w)
                    ? 0.0f
                    : im[(ic * h + ih) * w + iw];
            const int64_t row = (ic * k + kh) * k + kw;
            ASSERT_EQ(cols[row * oh * ow + y * ow + x], want)
                << ic << "," << kh << "," << kw << "," << y << "," << x;
          }
        }
      }
    }
  }
}

// Conv2d layer (im2col + GEMM) vs the direct 7-loop reference kernel.
TEST(KernelsTest, Conv2dForwardMatchesDirectReference) {
  Rng rng(107);
  const int64_t batch = 2, ic = 3, oc = 5, hw = 7, k = 3, p = 1;
  Conv2d conv(ic, oc, k, p, &rng);
  Tensor x = Tensor::Randn({batch, ic, hw, hw}, &rng);
  Tensor y = conv.Forward(x, true);

  // Pull the layer's weights through its param refs.
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor& weight = *params[0].value;
  const Tensor& bias = *params[1].value;

  const int64_t oh = kernels::ConvOutDim(hw, k, p);
  const int64_t ow = oh;
  std::vector<float> want(oc * oh * ow);
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Conv2dForwardReference(x.data() + n * ic * hw * hw,
                                    weight.data(), bias.data(), ic, hw, hw,
                                    oc, k, p, want.data());
    for (int64_t i = 0; i < oc * oh * ow; ++i) {
      ASSERT_NEAR(y.data()[n * oc * oh * ow + i], want[i], 1e-4)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, Conv2dBackwardMatchesDirectReference) {
  Rng rng(108);
  const int64_t batch = 2, ic = 2, oc = 4, hw = 6, k = 3, p = 1;
  Conv2d conv(ic, oc, k, p, &rng);
  Tensor x = Tensor::Randn({batch, ic, hw, hw}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad_out = Tensor::Randn(y.shape(), &rng);
  Tensor grad_in = conv.Backward(grad_out);

  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor& weight = *params[0].value;
  const Tensor& wgrad = *params[0].grad;
  const Tensor& bgrad = *params[1].grad;

  std::vector<float> want_wgrad(weight.numel(), 0.0f);
  std::vector<float> want_bgrad(oc, 0.0f);
  std::vector<float> want_gin(x.numel(), 0.0f);
  const int64_t oh = kernels::ConvOutDim(hw, k, p);
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Conv2dBackwardReference(
        x.data() + n * ic * hw * hw, weight.data(),
        grad_out.data() + n * oc * oh * oh, ic, hw, hw, oc, k, p,
        want_wgrad.data(), want_bgrad.data(),
        want_gin.data() + n * ic * hw * hw);
  }
  for (int64_t i = 0; i < wgrad.numel(); ++i) {
    ASSERT_NEAR(wgrad.at(i), want_wgrad[i], 1e-3) << "wgrad " << i;
  }
  for (int64_t i = 0; i < oc; ++i) {
    ASSERT_NEAR(bgrad.at(i), want_bgrad[i], 1e-3) << "bgrad " << i;
  }
  for (int64_t i = 0; i < grad_in.numel(); ++i) {
    ASSERT_NEAR(grad_in.at(i), want_gin[i], 1e-3) << "grad_in " << i;
  }
}

TEST(KernelsTest, ElementwiseHelpers) {
  const std::vector<float> x = {-2.0f, -0.0f, 0.0f, 3.0f};
  std::vector<float> y(4);
  kernels::ReluForward(x.data(), y.data(), 4);
  EXPECT_EQ(y, (std::vector<float>{0.0f, 0.0f, 0.0f, 3.0f}));

  std::vector<float> g = {1.0f, 1.0f, 1.0f, 1.0f};
  kernels::ReluBackward(x.data(), g.data(), 4);
  EXPECT_EQ(g, (std::vector<float>{0.0f, 0.0f, 0.0f, 1.0f}));

  std::vector<float> t(4);
  kernels::TanhForward(x.data(), t.data(), 4);
  EXPECT_FLOAT_EQ(t[3], std::tanh(3.0f));
  std::vector<float> tg = {1.0f, 1.0f, 1.0f, 1.0f};
  kernels::TanhBackward(t.data(), tg.data(), 4);
  EXPECT_FLOAT_EQ(tg[3], 1.0f - t[3] * t[3]);
}

TEST(KernelsTest, BiasAndSumHelpers) {
  // 2 rows x 3 cols.
  std::vector<float> y = {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<float> colb = {1.0f, 2.0f, 3.0f};
  kernels::AddColBias(y.data(), colb.data(), 2, 3);
  EXPECT_EQ(y, (std::vector<float>{1.0f, 2.0f, 3.0f, 2.0f, 3.0f, 4.0f}));

  const std::vector<float> rowb = {10.0f, 20.0f};
  kernels::AddRowBias(y.data(), rowb.data(), 2, 3);
  EXPECT_EQ(y, (std::vector<float>{11.0f, 12.0f, 13.0f, 22.0f, 23.0f, 24.0f}));

  std::vector<float> colsum(3, 100.0f);
  kernels::ColSumsAccum(y.data(), 2, 3, colsum.data());
  EXPECT_EQ(colsum, (std::vector<float>{133.0f, 135.0f, 137.0f}));

  std::vector<float> rowsum(2, 1000.0f);
  kernels::RowSumsAccum(y.data(), 2, 3, rowsum.data());
  EXPECT_EQ(rowsum, (std::vector<float>{1036.0f, 1069.0f}));
}

// -- 2x2 max pooling ---------------------------------------------------------

// [planes, height, width] cases for MaxPool2x2 against its reference:
// silo_convnet's two pools (16 images of 8 channels at 8x8, of 16 at 4x4),
// both vector widths with window counts that leave 4 or 6 windows to the
// scalar tail, runs that straddle row pairs (width 24), odd heights on a
// vector width, odd widths, and 1-wide and 1-high planes (no windows).
struct PoolShape {
  int64_t planes, height, width;
};
const PoolShape kPoolShapes[] = {
    {128, 8, 8}, {256, 4, 4}, {3, 4, 4},  {7, 4, 4},  {3, 6, 8},
    {5, 2, 8},   {3, 2, 24},  {2, 6, 16}, {3, 5, 8},  {5, 7, 4},
    {3, 5, 7},   {2, 9, 8},   {1, 8, 9},  {4, 6, 1},  {4, 1, 6},
    {2, 2, 2},   {3, 3, 3},   {6, 4, 6},  {2, 10, 12}, {1, 2, 64}};

// Values that decide ties and non-finite handling: ReLU-style zeros (most
// windows tie), both zeros, repeated values, NaN and both infinities.
std::vector<float> PoolInput(int64_t n, Rng* rng) {
  const float kSpecial[] = {0.0f,
                            -0.0f,
                            1.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  std::vector<float> v(n);
  for (auto& x : v) {
    const int64_t pick = rng->UniformInt(0, 9);
    x = pick < 6 ? kSpecial[pick]
                 : std::max(0.0f, static_cast<float>(rng->Normal()));
  }
  return v;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(KernelsTest, MaxPool2x2MatchesReferenceExactly) {
  Rng rng(109);
  for (const PoolShape& s : kPoolShapes) {
    const std::vector<float> x = PoolInput(s.planes * s.height * s.width, &rng);
    const int64_t outputs = s.planes * (s.height / 2) * (s.width / 2);
    std::vector<float> y(outputs, -7.0f), y_ref(outputs, 7.0f);
    std::vector<int64_t> arg(outputs, -1), arg_ref(outputs, -2);
    kernels::MaxPool2x2(x.data(), s.planes, s.height, s.width, y.data(),
                        arg.data());
    kernels::MaxPool2x2Reference(x.data(), s.planes, s.height, s.width,
                                 y_ref.data(), arg_ref.data());
    EXPECT_TRUE(SameBits(y, y_ref)) << s.planes << "x" << s.height << "x"
                                    << s.width;
    EXPECT_EQ(arg, arg_ref) << s.planes << "x" << s.height << "x" << s.width;
  }
}

TEST(KernelsTest, MaxPool2x2TiesNaNAndZerosFollowVisitOrder) {
  // Eight 2x2 windows in one 2x16 plane: one vector step. Window i holds
  // x[2i], x[2i+1] on the top row and x[16+2i], x[16+2i+1] below.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float top[16] = {0.0f, 0.0f,  -0.0f, 0.0f, nan,  5.0f, 1.0f, nan,
                         2.0f, 2.0f,  -inf,  -inf, inf,  inf,  0.0f, -1.0f};
  const float bottom[16] = {0.0f, 0.0f, 0.0f, 0.0f, 9.0f, 9.0f, 1.0f, 3.0f,
                            2.0f, 2.0f, -inf, -inf, 1.0f, inf,  nan,  4.0f};
  std::vector<float> x(top, top + 16);
  x.insert(x.end(), bottom, bottom + 16);
  std::vector<float> y(8);
  std::vector<int64_t> arg(8);
  kernels::MaxPool2x2(x.data(), 1, 2, 16, y.data(), arg.data());
  // All-zero tie: the first element. -0 first: +0 is not greater, so -0
  // stays. NaN first: nothing compares greater, NaN stays. NaN later:
  // never taken (3 beats 1). Equal 2s: the earliest. All -inf: the first.
  // inf tie: the first. NaN in slot (1,0) is skipped; 4 wins.
  const std::vector<int64_t> want_arg = {0, 2, 4, 23, 8, 10, 12, 31};
  EXPECT_EQ(arg, want_arg);
  EXPECT_TRUE(std::signbit(y[1]));
  EXPECT_TRUE(std::isnan(y[2]));
  EXPECT_EQ(y[3], 3.0f);
  EXPECT_EQ(y[7], 4.0f);
  std::vector<float> y_ref(8);
  std::vector<int64_t> arg_ref(8);
  kernels::MaxPool2x2Reference(x.data(), 1, 2, 16, y_ref.data(),
                               arg_ref.data());
  EXPECT_TRUE(SameBits(y, y_ref));
  EXPECT_EQ(arg, arg_ref);
}

// The Tensor-level ops route through the kernels; sanity-check one known
// value so a rewiring regression is caught at this level too.
TEST(KernelsTest, TensorOpsRouteThroughKernels) {
  Tensor a({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor b({2, 2}, {5.0f, 6.0f, 7.0f, 8.0f});
  Tensor c = MatMul(a, b);
  std::vector<float> want(4, 0.0f);
  kernels::GemmReference(2, 2, 2, a.data(), b.data(), want.data());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.at(i), want[i]);
}

}  // namespace
}  // namespace fedscope
