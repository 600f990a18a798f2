#include <cmath>

#include <gtest/gtest.h>

#include "nn/dense.h"
#include "nn/gradient_check.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::nn {
namespace {

using apots::tensor::Tensor;

Tensor Random(std::vector<size_t> shape, uint64_t seed, float lo = -1.0f,
              float hi = 1.0f) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, lo, hi);
  return t;
}

TEST(MseLossTest, KnownValue) {
  const Tensor pred = Tensor::FromVector({1.0f, 2.0f});
  const Tensor target = Tensor::FromVector({0.0f, 4.0f});
  const LossResult result = MseLoss(pred, target);
  EXPECT_NEAR(result.value, (1.0f + 4.0f) / 2.0f, 1e-6f);
}

TEST(MseLossTest, ZeroAtPerfectPrediction) {
  const Tensor x = Random({8, 1}, 1);
  const LossResult result = MseLoss(x, x);
  EXPECT_FLOAT_EQ(result.value, 0.0f);
  for (size_t i = 0; i < result.grad.size(); ++i) {
    EXPECT_FLOAT_EQ(result.grad[i], 0.0f);
  }
}

TEST(MseLossTest, GradientMatchesFiniteDifferences) {
  const Tensor target = Random({6, 1}, 2);
  const Tensor point = Random({6, 1}, 3);
  const LossResult at_point = MseLoss(point, target);
  const auto result = CheckFunctionGradient(
      [&target](const Tensor& p) {
        return static_cast<double>(MseLoss(p, target).value);
      },
      point, at_point.grad, 1e-3);
  EXPECT_LT(result.max_rel_error, 1e-2);
}

TEST(BceLossTest, KnownValueAtZeroLogit) {
  const Tensor logits = Tensor::FromVector({0.0f});
  const LossResult vs_one =
      BceWithLogitsLoss(logits, Tensor::FromVector({1.0f}));
  EXPECT_NEAR(vs_one.value, std::log(2.0f), 1e-5f);
  const LossResult vs_zero =
      BceWithLogitsLoss(logits, Tensor::FromVector({0.0f}));
  EXPECT_NEAR(vs_zero.value, std::log(2.0f), 1e-5f);
}

TEST(BceLossTest, StableAtExtremeLogits) {
  const Tensor logits = Tensor::FromVector({1000.0f, -1000.0f});
  const Tensor target = Tensor::FromVector({1.0f, 0.0f});
  const LossResult result = BceWithLogitsLoss(logits, target);
  EXPECT_FALSE(std::isnan(result.value));
  EXPECT_FALSE(std::isinf(result.value));
  EXPECT_NEAR(result.value, 0.0f, 1e-5f);
}

TEST(BceLossTest, GradientMatchesFiniteDifferences) {
  const Tensor target = Tensor::FromVector({1.0f, 0.0f, 1.0f, 0.0f});
  const Tensor point = Random({4}, 4, -2.0f, 2.0f);
  const LossResult at_point = BceWithLogitsLoss(point, target);
  const auto result = CheckFunctionGradient(
      [&target](const Tensor& p) {
        return static_cast<double>(BceWithLogitsLoss(p, target).value);
      },
      point, at_point.grad, 1e-3);
  EXPECT_LT(result.max_rel_error, 1e-2);
}

TEST(AdversarialGeneratorLossTest, EquivalentToBceAgainstOnes) {
  const Tensor logits = Random({5, 1}, 5, -3.0f, 3.0f);
  const LossResult gen = AdversarialGeneratorLoss(logits);
  const LossResult bce =
      BceWithLogitsLoss(logits, Tensor::Full({5, 1}, 1.0f));
  EXPECT_FLOAT_EQ(gen.value, bce.value);
}

TEST(AdversarialGeneratorLossTest, GradientPushesLogitsUp) {
  const Tensor logits = Tensor::FromVector({-1.0f, 0.0f, 1.0f});
  const LossResult gen = AdversarialGeneratorLoss(logits);
  // d/dz of -log sigmoid(z) = sigmoid(z) - 1 < 0: descending raises z.
  for (size_t i = 0; i < 3; ++i) EXPECT_LT(gen.grad[i], 0.0f);
}

TEST(AdamTest, FirstStepHasLearningRateMagnitude) {
  Parameter p("p", Tensor::FromVector({1.0f}));
  p.grad[0] = 123.0f;  // Adam normalizes the scale away
  Adam adam(0.01f);
  adam.Step({&p});
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2 from w = 0.
  Parameter p("p", Tensor::FromVector({0.0f}));
  Adam adam(0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.StepAndZero({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(OptimizerTest, StepAndZeroClearsGradients) {
  Parameter p("p", Tensor::FromVector({1.0f}));
  p.grad[0] = 1.0f;
  Adam adam(0.01f);
  adam.StepAndZero({&p});
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(TrainingTest, DenseRegressionLearnsLinearMap) {
  // y = 2 x0 - x1 + 0.5, learnable exactly by Dense(2, 1).
  apots::Rng rng(6);
  Dense layer(2, 1, &rng);
  Adam adam(0.05f);
  const Tensor inputs = Random({64, 2}, 7);
  Tensor targets({64, 1});
  for (size_t i = 0; i < 64; ++i) {
    targets[i] = 2.0f * inputs.At(i, 0) - inputs.At(i, 1) + 0.5f;
  }
  float last = 0.0f;
  tensor::Workspace ws;
  for (int epoch = 0; epoch < 400; ++epoch) {
    ws.Reset();
    const Tensor& out = *layer.RecordForward(inputs, &ws);
    const LossResult loss = MseLoss(out, targets);
    layer.Backward(loss.grad);
    adam.StepAndZero(layer.Parameters());
    last = loss.value;
  }
  EXPECT_LT(last, 1e-4f);
  auto params = layer.Parameters();
  EXPECT_NEAR(params[0]->value[0], 2.0f, 0.05f);
  EXPECT_NEAR(params[0]->value[1], -1.0f, 0.05f);
  EXPECT_NEAR(params[1]->value[0], 0.5f, 0.05f);
}

}  // namespace
}  // namespace apots::nn
