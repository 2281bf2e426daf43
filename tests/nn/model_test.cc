#include "fedscope/nn/model.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fedscope/nn/loss.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

Model SmallMlp(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeMlp({4, 6, 3}, &rng);
}

TEST(ModelTest, ParamsHaveHierarchicalNames) {
  Model m = SmallMlp();
  auto params = m.Params();
  ASSERT_EQ(params.size(), 4u);  // fc1.{weight,bias}, fc2.{weight,bias}
  EXPECT_EQ(params[0].name, "fc1.weight");
  EXPECT_EQ(params[3].name, "fc2.bias");
}

TEST(ModelTest, NumParamsCountsScalars) {
  Model m = SmallMlp();
  EXPECT_EQ(m.NumParams(), 4 * 6 + 6 + 6 * 3 + 3);
}

TEST(ModelTest, DuplicateLayerNameDies) {
  Rng rng(2);
  Model m;
  m.Add("fc", std::make_unique<Linear>(2, 2, &rng));
  EXPECT_DEATH(m.Add("fc", std::make_unique<Linear>(2, 2, &rng)), "");
}

TEST(ModelTest, StateDictRoundTrip) {
  Model a = SmallMlp(1);
  Model b = SmallMlp(99);
  EXPECT_FALSE(a.GetStateDict() == b.GetStateDict());
  ASSERT_TRUE(b.LoadStateDict(a.GetStateDict()).ok());
  EXPECT_TRUE(a.GetStateDict() == b.GetStateDict());
}

TEST(ModelTest, StateDictFilterSelectsSubset) {
  Model m = SmallMlp();
  auto only_fc1 = m.GetStateDict(IncludePrefixes({"fc1"}));
  EXPECT_EQ(only_fc1.size(), 2u);
  auto no_bias = m.GetStateDict(ExcludeSubstrings({"bias"}));
  EXPECT_EQ(no_bias.size(), 2u);
  EXPECT_TRUE(no_bias.count("fc1.weight"));
}

TEST(ModelTest, LoadStateDictShapeMismatchErrors) {
  Model m = SmallMlp();
  StateDict bad;
  bad["fc1.weight"] = Tensor({2, 2});
  EXPECT_FALSE(m.LoadStateDict(bad).ok());
}

TEST(ModelTest, LoadStateDictStrictRejectsUnknownKeys) {
  Model m = SmallMlp();
  StateDict extra;
  extra["nope.weight"] = Tensor({1});
  EXPECT_TRUE(m.LoadStateDict(extra, /*strict=*/false).ok());
  EXPECT_FALSE(m.LoadStateDict(extra, /*strict=*/true).ok());
}

TEST(ModelTest, CopyIsDeep) {
  Model a = SmallMlp();
  Model b = a;
  auto pa = a.Params();
  auto pb = b.Params();
  pb[0].value->at(0) += 5.0f;
  EXPECT_NE(pa[0].value->at(0), pb[0].value->at(0));
}

TEST(ModelTest, FlatParamsRoundTrip) {
  Model a = SmallMlp(1);
  Model b = SmallMlp(50);
  auto flat = a.FlatParams();
  EXPECT_EQ(static_cast<int64_t>(flat.size()), a.NumParams());
  b.SetFlatParams(flat);
  EXPECT_TRUE(a.GetStateDict() == b.GetStateDict());
}

TEST(ModelTest, ZeroGradClearsGradients) {
  Model m = SmallMlp();
  Rng rng(3);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor out = m.Forward(x, true);
  m.Backward(Tensor::Full(out.shape(), 1.0f));
  bool any_nonzero = false;
  for (auto& p : m.Params()) {
    if (p.grad && SquaredNorm(*p.grad) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  m.ZeroGrad();
  for (auto& p : m.Params()) {
    if (p.grad) {
      EXPECT_EQ(SquaredNorm(*p.grad), 0.0);
    }
  }
}

TEST(ModelTest, GradientsAccumulateAcrossBackwards) {
  Model m = SmallMlp();
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor g = Tensor::Full({2, 3}, 1.0f);

  m.ZeroGrad();
  m.Forward(x, true);
  m.Backward(g);
  auto one_pass = *m.Params()[0].grad;

  m.Forward(x, true);
  m.Backward(g);
  auto two_pass = *m.Params()[0].grad;
  for (int64_t i = 0; i < one_pass.numel(); ++i) {
    EXPECT_NEAR(two_pass.at(i), 2.0f * one_pass.at(i), 1e-4);
  }
}

// -- Backward prefix ---------------------------------------------------------

// Every layer's Backward in reverse, the first layer's input gradient
// included: what Model::Backward must equal on every parameter gradient.
void FullBackward(Model* m, const Tensor& grad_out) {
  Tensor g = grad_out;
  for (int i = m->num_layers() - 1; i >= 0; --i) g = m->layer(i)->Backward(g);
}

// Two training steps on two copies of `proto` (same dropout streams), one
// through Model::Backward and one through FullBackward, with gradients
// accumulating across the steps: every gradient must match bit for bit,
// and no Conv2d may keep its columns afterwards.
void ExpectPrefixMatchesFullBackward(const Model& proto,
                                     std::vector<int64_t> x_shape,
                                     int64_t classes) {
  Model prefix = proto;
  Model full = proto;
  Rng rng(31);
  SoftmaxCrossEntropy loss;
  for (int step = 0; step < 2; ++step) {
    const Tensor x = Tensor::Randn(x_shape, &rng);
    std::vector<int64_t> labels(x_shape[0]);
    for (auto& label : labels) label = rng.UniformInt(0, classes - 1);
    const Tensor out = prefix.Forward(x, /*train=*/true);
    ASSERT_TRUE(full.Forward(x, /*train=*/true) == out);
    loss.Forward(out, labels);
    const Tensor grad_out = loss.Backward();
    prefix.Backward(grad_out);
    FullBackward(&full, grad_out);

    const std::vector<ParamRef> got = prefix.Params();
    const std::vector<ParamRef> want = full.Params();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      if (want[i].grad == nullptr) continue;
      EXPECT_TRUE(*got[i].grad == *want[i].grad)
          << want[i].name << " step " << step;
      EXPECT_GT(SquaredNorm(*want[i].grad), 0.0) << want[i].name;
    }
    for (int i = 0; i < prefix.num_layers(); ++i) {
      if (const auto* conv = dynamic_cast<Conv2d*>(prefix.layer(i))) {
        EXPECT_EQ(conv->kept_column_floats(), 0u) << prefix.layer_name(i);
      }
    }
  }
}

TEST(BackwardPrefixTest, ConvNet2MatchesFullBackward) {
  Rng rng(5);
  ExpectPrefixMatchesFullBackward(
      MakeConvNet2(1, 8, 10, 16, /*dropout=*/0.0, &rng), {4, 1, 8, 8}, 10);
}

TEST(BackwardPrefixTest, ConvNet2WithDropoutMatchesFullBackward) {
  Rng rng(6);
  ExpectPrefixMatchesFullBackward(
      MakeConvNet2(3, 8, 10, 16, /*dropout=*/0.5, &rng), {4, 3, 8, 8}, 10);
}

TEST(BackwardPrefixTest, FlattenMlpMatchesFullBackward) {
  Rng rng(7);
  Model m;
  m.Add("flatten", std::make_unique<Flatten>());
  m.Add("fc1", std::make_unique<Linear>(18, 8, &rng));
  m.Add("relu1", std::make_unique<ReLU>());
  m.Add("fc2", std::make_unique<Linear>(8, 4, &rng));
  ExpectPrefixMatchesFullBackward(m, {5, 2, 3, 3}, 4);
}

TEST(BackwardPrefixTest, LogisticRegressionMatchesFullBackward) {
  Rng rng(8);
  ExpectPrefixMatchesFullBackward(MakeLogisticRegression(6, 3, &rng), {5, 6},
                                  3);
}

TEST(BackwardPrefixTest, BatchNormFirstMatchesFullBackward) {
  Rng rng(9);
  Model m;
  m.Add("norm", std::make_unique<BatchNorm>(6));
  m.Add("fc1", std::make_unique<Linear>(6, 5, &rng));
  m.Add("relu1", std::make_unique<ReLU>());
  m.Add("fc2", std::make_unique<Linear>(5, 3, &rng));
  ExpectPrefixMatchesFullBackward(m, {8, 6}, 3);
}

TEST(BackwardPrefixTest, DropoutBeforeFirstLinearMatchesFullBackward) {
  Rng rng(10);
  Model m;
  m.Add("drop", std::make_unique<Dropout>(0.3, rng.Next()));
  m.Add("fc1", std::make_unique<Linear>(6, 5, &rng));
  m.Add("tanh1", std::make_unique<Tanh>());
  m.Add("fc2", std::make_unique<Linear>(5, 3, &rng));
  ExpectPrefixMatchesFullBackward(m, {8, 6}, 3);
}

// Records which of Backward and BackwardParams ran.
class SpyLayer : public Layer {
 public:
  explicit SpyLayer(std::vector<std::string>* calls, std::string name)
      : calls_(calls), name_(std::move(name)) {}
  Tensor Forward(const Tensor& x, bool /*train*/) override { return x; }
  Tensor Backward(const Tensor& grad_out) override {
    calls_->push_back(name_ + ".Backward");
    return grad_out;
  }
  void BackwardParams(const Tensor& grad_out) override {
    calls_->push_back(name_ + ".BackwardParams");
    (void)grad_out;
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<SpyLayer>(*this);
  }
  std::string TypeName() const override { return "Spy"; }

 private:
  std::vector<std::string>* calls_;
  std::string name_;
};

TEST(BackwardPrefixTest, LayersBelowFirstParameterLayerDoNotRun) {
  Rng rng(11);
  std::vector<std::string> calls;
  Model m;
  m.Add("below", std::make_unique<SpyLayer>(&calls, "below"));
  m.Add("fc1", std::make_unique<Linear>(4, 3, &rng));
  m.Add("above", std::make_unique<SpyLayer>(&calls, "above"));
  m.Add("fc2", std::make_unique<Linear>(3, 2, &rng));
  // The index is found at Add and must survive a copy.
  Model copy = m;
  const Tensor out = copy.Forward(Tensor::Randn({2, 4}, &rng), true);
  copy.Backward(Tensor::Full(out.shape(), 1.0f));
  EXPECT_EQ(calls, std::vector<std::string>{"above.Backward"});

  // Without a parameter layer there is no gradient to accumulate.
  calls.clear();
  Model no_params;
  no_params.Add("only", std::make_unique<SpyLayer>(&calls, "only"));
  no_params.Backward(no_params.Forward(Tensor::Full({1, 2}, 1.0f), true));
  EXPECT_TRUE(calls.empty());
}

// -- NameFilters -------------------------------------------------------------

TEST(NameFilterTest, AcceptAll) {
  EXPECT_TRUE(AcceptAll()("anything"));
}

TEST(NameFilterTest, ExcludeSubstrings) {
  auto f = ExcludeSubstrings({".bn.", "head"});
  EXPECT_TRUE(f("conv1.weight"));
  EXPECT_FALSE(f("norm1.bn.gamma"));
  EXPECT_FALSE(f("head.fc.weight"));
}

TEST(NameFilterTest, IncludePrefixes) {
  auto f = IncludePrefixes({"body."});
  EXPECT_TRUE(f("body.fc1.weight"));
  EXPECT_FALSE(f("head.fc.weight"));
  EXPECT_FALSE(f("xbody.fc1.weight"));
}

// -- StateDict arithmetic ----------------------------------------------------

StateDict MakeDict(float a, float b) {
  StateDict d;
  d["x"] = Tensor::FromVector({a});
  d["y"] = Tensor::FromVector({b});
  return d;
}

TEST(StateDictMathTest, AddSubScale) {
  auto a = MakeDict(1, 2), b = MakeDict(3, 4);
  EXPECT_EQ(SdAdd(a, b).at("x").at(0), 4.0f);
  EXPECT_EQ(SdSub(b, a).at("y").at(0), 2.0f);
  EXPECT_EQ(SdScale(a, 2.0f).at("y").at(0), 4.0f);
}

TEST(StateDictMathTest, AxpyAndNorm) {
  auto a = MakeDict(3, 4);
  SdAxpy(&a, 2.0f, MakeDict(1, 1));
  EXPECT_EQ(a.at("x").at(0), 5.0f);
  EXPECT_DOUBLE_EQ(SdNorm(MakeDict(3, 4)), 5.0);
}

TEST(StateDictMathTest, WeightedAverage) {
  auto a = MakeDict(0, 0), b = MakeDict(10, 20);
  auto avg = SdWeightedAverage({&a, &b}, {3.0, 1.0});
  EXPECT_NEAR(avg.at("x").at(0), 2.5f, 1e-5);
  EXPECT_NEAR(avg.at("y").at(0), 5.0f, 1e-5);
}

TEST(StateDictMathTest, MismatchedKeysDie) {
  StateDict a = MakeDict(1, 2);
  StateDict b;
  b["x"] = Tensor::FromVector({1.0f});
  EXPECT_DEATH(SdAdd(a, b), "");
}

TEST(StateDictMathTest, FlattenAndNumel) {
  auto a = MakeDict(1, 2);
  auto flat = SdFlatten(a);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0], 1.0f);  // "x" before "y" (map order)
  EXPECT_EQ(SdNumel(a), 2);
}

}  // namespace
}  // namespace fedscope
