// Property-style gradient verification: every layer's analytic backward
// pass is checked against central finite differences across a sweep of
// shapes. This is the load-bearing test of the NN substrate — if these
// pass, training is computing the right thing. The checker itself is
// self-tested against a layer with a deliberately wrong gradient.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv_trunk.h"
#include "nn/dense.h"
#include "nn/gradient_check.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::nn {
namespace {

using apots::tensor::Tensor;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

// The central-difference step. A difference whose step straddles a ReLU
// kink is wrong by up to the kink's slope change, so every test that
// chains an activation keeps its hidden pre-activations well clear of 0.
constexpr double kEpsilon = 1e-2;

// Checks a layer at the given input shape; forward must define the output
// shape, so we run one forward to size the loss weights.
void CheckLayer(Layer* layer, const Tensor& input, double tolerance = 2e-2) {
  tensor::Workspace ws;
  const Tensor& probe = *layer->Forward(input, &ws);
  apots::Rng rng(99);
  Tensor weights(probe.shape());
  apots::tensor::FillUniform(&weights, &rng, -1.0f, 1.0f);
  const GradCheckResult result =
      CheckLayerGradients(layer, input, weights, kEpsilon);
  EXPECT_GT(result.checked, 0u);
  EXPECT_LT(result.max_rel_error, tolerance)
      << layer->Name() << ": max abs err " << result.max_abs_error;
}

TEST(GradientTest, Dense) {
  apots::Rng rng(1);
  Dense layer(6, 4, &rng);
  CheckLayer(&layer, Random({3, 6}, 2));
}

TEST(GradientTest, DenseSingleSample) {
  apots::Rng rng(3);
  Dense layer(10, 1, &rng);
  CheckLayer(&layer, Random({1, 10}, 4));
}

TEST(GradientTest, Relu) {
  Relu layer;
  // Keep inputs away from the kink at 0 for finite differences.
  Tensor in = Random({4, 5}, 5);
  for (size_t i = 0; i < in.size(); ++i) {
    if (std::fabs(in[i]) < 0.05f) in[i] = 0.2f;
  }
  CheckLayer(&layer, in);
}

TEST(GradientTest, LeakyRelu) {
  LeakyRelu layer(0.2f);
  Tensor in = Random({4, 5}, 6);
  for (size_t i = 0; i < in.size(); ++i) {
    if (std::fabs(in[i]) < 0.05f) in[i] = -0.2f;
  }
  CheckLayer(&layer, in);
}

// Sets a one-layer trunk's biases so that, on inputs in [-1, 1], every
// pre-activation clears the ReLU kink by at least 1 (100 steps of
// epsilon): channel c gets +-(1 + sum_k |W[c][k]|), + for even channels
// and - for odd ones, so both sides of the ReLU are checked.
void ClearReluKink(ConvTrunk* trunk) {
  const auto params = trunk->Parameters();
  ASSERT_EQ(params.size(), 2u);
  const Tensor& weight = params[0]->value;
  Tensor& bias = params[1]->value;
  for (size_t c = 0; c < weight.rows(); ++c) {
    float reach = 0.0f;
    for (size_t k = 0; k < weight.cols(); ++k) {
      reach += std::fabs(weight.At(c, k));
    }
    bias[c] = (c % 2 == 0 ? 1.0f : -1.0f) * (1.0f + reach);
  }
}

class Conv2dGradientSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t,
                                                 size_t>> {};

TEST_P(Conv2dGradientSweep, MatchesFiniteDifferences) {
  const auto [in_channels, out_channels, kernel, pad] = GetParam();
  ASSERT_EQ(pad, kernel / 2);  // the trunk pads for "same" output
  apots::Rng rng(10);
  ConvTrunk layer(in_channels, 5, 4, {out_channels}, {kernel},
                  ConvTrunk::Layout::kFlat, &rng);
  ClearReluKink(&layer);
  CheckLayer(&layer, Random({2, in_channels, 5, 4}, 11), 3e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dGradientSweep,
    ::testing::Values(std::make_tuple(1, 2, 3, 1), std::make_tuple(2, 3, 3, 1),
                      std::make_tuple(2, 2, 1, 0),
                      std::make_tuple(3, 1, 3, 1)));

class LstmGradientSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t,
                                                 bool>> {};

TEST_P(LstmGradientSweep, MatchesFiniteDifferences) {
  const auto [features, hidden, time, return_sequences] = GetParam();
  apots::Rng rng(12);
  Lstm layer(features, hidden, return_sequences, &rng);
  // LSTM composes many float32 nonlinearities; allow a looser bound.
  CheckLayer(&layer, Random({2, time, features}, 13), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmGradientSweep,
    ::testing::Values(std::make_tuple(3, 4, 5, false),
                      std::make_tuple(3, 4, 5, true),
                      std::make_tuple(5, 2, 8, false),
                      std::make_tuple(2, 6, 3, true),
                      std::make_tuple(4, 4, 1, false)));

// Smallest |x| over a tensor.
float MinMagnitude(const Tensor& t) {
  float least = std::fabs(t[0]);
  for (size_t i = 1; i < t.size(); ++i) {
    least = std::min(least, std::fabs(t[i]));
  }
  return least;
}

TEST(GradientTest, StackedMlp) {
  apots::Rng rng(14);
  Sequential net;
  auto* first = net.Emplace<Dense>(6, 5, &rng);
  auto* leaky = net.Emplace<LeakyRelu>(0.2f);
  auto* second = net.Emplace<Dense>(5, 3, &rng);
  net.Emplace<Relu>();
  net.Emplace<Dense>(3, 1, &rng);
  // Both activations have a kink at 0, and a central difference whose
  // step straddles one is wrong by up to the kink's slope change. So the
  // batch keeps only input rows whose hidden pre-activations all clear 0
  // by 10 epsilon. One step of epsilon on any input or weight moves a
  // pre-activation by at most a few epsilon at these weights (|W| <= 0.87).
  constexpr float kMargin = 10 * kEpsilon;
  const auto hidden = [&](const Tensor& x, Tensor* h1, Tensor* h2) {
    tensor::Workspace ws;
    *h1 = *first->Forward(x, &ws);
    *h2 = *second->Forward(*leaky->Forward(*h1, &ws), &ws);
  };
  Tensor input({3, 6});
  Tensor h1, h2;
  for (uint64_t seed = 15, rows = 0; rows < 3; ++seed) {
    const Tensor row = Random({1, 6}, seed);
    hidden(row, &h1, &h2);
    if (MinMagnitude(h1) < kMargin || MinMagnitude(h2) < kMargin) continue;
    std::copy(row.data(), row.data() + 6, input.data() + 6 * rows++);
  }
  hidden(input, &h1, &h2);
  ASSERT_GE(MinMagnitude(h1), kMargin);
  ASSERT_GE(MinMagnitude(h2), kMargin);
  CheckLayer(&net, input);
}

TEST(GradientTest, ConvThenDense) {
  apots::Rng rng(16);
  Sequential net;
  auto* trunk = net.Emplace<ConvTrunk>(1, 4, 3, std::vector<size_t>{3},
                                       std::vector<size_t>{3},
                                       ConvTrunk::Layout::kFlat, &rng);
  net.Emplace<Dense>(3 * 4 * 3, 1, &rng);
  ClearReluKink(trunk);
  CheckLayer(&net, Random({2, 1, 4, 3}, 17), 3e-2);
}

TEST(GradientTest, StackedLstm) {
  apots::Rng rng(18);
  Sequential net;
  net.Emplace<Lstm>(3, 4, /*return_sequences=*/true, &rng);
  net.Emplace<Lstm>(4, 3, /*return_sequences=*/false, &rng);
  net.Emplace<Dense>(3, 1, &rng);
  CheckLayer(&net, Random({2, 6, 3}, 19), 5e-2);
}

TEST(GradientCheckerSelfTest, FlagsAWrongGradient) {
  // A layer lying about its gradient must be caught by the checker.
  class LyingLayer : public Layer {
   public:
    const Tensor* Forward(const Tensor& input,
                          tensor::Workspace* ws) const override {
      Tensor* out = ws->Acquire(input.shape());
      *out = apots::tensor::Scale(input, 2.0f);
      return out;
    }
    const Tensor* RecordForward(const Tensor& input,
                                tensor::Workspace* ws) override {
      return Forward(input, ws);
    }
    Tensor Backward(const Tensor& grad) override {
      // True gradient is 2 * grad; report 3 * grad.
      return apots::tensor::Scale(grad, 3.0f);
    }
    std::string Name() const override { return "LyingLayer"; }
  };
  LyingLayer layer;
  const Tensor input = Random({2, 3}, 11);
  const Tensor weights = Random({2, 3}, 12);
  const auto result = CheckLayerGradients(&layer, input, weights, 1e-2);
  EXPECT_GT(result.max_rel_error, 0.2);
}

TEST(GradientCheckerSelfTest, AcceptsACorrectGradient) {
  class HonestLayer : public Layer {
   public:
    const Tensor* Forward(const Tensor& input,
                          tensor::Workspace* ws) const override {
      Tensor* out = ws->Acquire(input.shape());
      *out = apots::tensor::Scale(input, 2.0f);
      return out;
    }
    const Tensor* RecordForward(const Tensor& input,
                                tensor::Workspace* ws) override {
      return Forward(input, ws);
    }
    Tensor Backward(const Tensor& grad) override {
      return apots::tensor::Scale(grad, 2.0f);
    }
    std::string Name() const override { return "HonestLayer"; }
  };
  HonestLayer layer;
  const Tensor input = Random({2, 3}, 13);
  const Tensor weights = Random({2, 3}, 14);
  const auto result = CheckLayerGradients(&layer, input, weights, 1e-2);
  EXPECT_LT(result.max_rel_error, 1e-3);
}

}  // namespace
}  // namespace apots::nn
