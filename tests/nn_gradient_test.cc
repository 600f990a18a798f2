// Property-style gradient verification: every layer's analytic backward
// pass is checked against central finite differences across a sweep of
// shapes. This is the load-bearing test of the NN substrate — if these
// pass, training is computing the right thing. The checker itself is
// self-tested against a layer with a deliberately wrong gradient.

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/gradient_check.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
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

// Checks a layer at the given input shape; forward must define the output
// shape, so we run one forward to size the loss weights. A central
// difference across a ReLU kink is wrong by up to the kink's slope change,
// so chains whose hidden pre-activations the test cannot steer clear of the
// kink take a smaller `epsilon`.
void CheckLayer(Layer* layer, const Tensor& input, double tolerance = 2e-2,
                size_t stride = 1, double epsilon = 1e-2) {
  const Tensor probe = layer->Forward(input, false);
  apots::Rng rng(99);
  Tensor weights(probe.shape());
  apots::tensor::FillUniform(&weights, &rng, -1.0f, 1.0f);
  const GradCheckResult result =
      CheckLayerGradients(layer, input, weights, epsilon, stride);
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

TEST(GradientTest, Flatten) {
  Flatten layer;
  CheckLayer(&layer, Random({2, 3, 4}, 9));
}

class Conv2dGradientSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t,
                                                 size_t>> {};

TEST_P(Conv2dGradientSweep, MatchesFiniteDifferences) {
  const auto [in_channels, out_channels, kernel, pad] = GetParam();
  apots::Rng rng(10);
  Conv2d layer(in_channels, out_channels, kernel, kernel, pad, &rng);
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

TEST(GradientTest, StackedMlp) {
  apots::Rng rng(14);
  Sequential net;
  net.Emplace<Dense>(6, 5, &rng);
  net.Emplace<LeakyRelu>(0.2f);
  net.Emplace<Dense>(5, 3, &rng);
  net.Emplace<Relu>();
  net.Emplace<Dense>(3, 1, &rng);
  CheckLayer(&net, Random({3, 6}, 15), 2e-2, 1, 1e-3);
}

TEST(GradientTest, ConvThenDense) {
  apots::Rng rng(16);
  Sequential net;
  net.Emplace<Conv2d>(1, 2, 3, 3, 1, &rng);
  net.Emplace<LeakyRelu>(0.2f);
  net.Emplace<Flatten>();
  net.Emplace<Dense>(2 * 4 * 3, 1, &rng);
  CheckLayer(&net, Random({2, 1, 4, 3}, 17), 3e-2, 1, 1e-3);
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
    Tensor Forward(const Tensor& input, bool) override {
      cached_ = input;
      return apots::tensor::Scale(input, 2.0f);
    }
    Tensor Backward(const Tensor& grad) override {
      // True gradient is 2 * grad; report 3 * grad.
      return apots::tensor::Scale(grad, 3.0f);
    }
    std::string Name() const override { return "LyingLayer"; }

   private:
    Tensor cached_;
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
    Tensor Forward(const Tensor& input, bool) override {
      return apots::tensor::Scale(input, 2.0f);
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
